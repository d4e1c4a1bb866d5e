package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"paragraph/internal/advisor"
)

// Cache persistence: the advise-response cache (ranked grids and single
// predictions) is the service's hottest artifact — every entry stands for a
// full parse→encode→predict sweep — so SnapshotCache serializes it and
// RestoreCache refills it, letting a restarted process answer repeat
// traffic as cache hits immediately instead of re-earning its cache. Keys
// are the content-addressed request hashes, which are stable across
// processes by construction. The encode cache is deliberately not
// persisted: encoded graphs are big, rebuildable, and refill quickly once
// responses are warm.

// snapshotVersion guards the snapshot schema; bump on incompatible change.
const snapshotVersion = 1

// recSnap is the persisted form of one advisor.Recommendation. Kind travels
// by name so snapshots survive resorderings of the variants.Kind enum.
type recSnap struct {
	Kind        string  `json:"kind"`
	Teams       int     `json:"teams,omitempty"`
	Threads     int     `json:"threads"`
	PredictedUS float64 `json:"predicted_us"`
	Source      string  `json:"source,omitempty"`
}

type adviseSnap struct {
	Key  string    `json:"key"`
	Recs []recSnap `json:"recs"`
}

type predictSnap struct {
	Key string  `json:"key"`
	US  float64 `json:"us"`
}

type cacheSnapshot struct {
	Version int           `json:"version"`
	Advise  []adviseSnap  `json:"advise"`
	Predict []predictSnap `json:"predict"`
}

// encodeEntries is the one cache-entry encoder: it renders items in the
// snapshot schema. Every path that moves entries — the snapshot file,
// write-through, drain batches and pull responses — goes through it.
// Values of any other type are skipped.
func encodeEntries(items []CacheItem) cacheSnapshot {
	snap := cacheSnapshot{Version: snapshotVersion}
	for _, it := range items {
		switch v := it.Val.(type) {
		case []advisor.Recommendation:
			as := adviseSnap{Key: it.Key, Recs: make([]recSnap, len(v))}
			for i, r := range v {
				as.Recs[i] = recSnap{
					Kind: r.Kind.String(), Teams: r.Teams, Threads: r.Threads,
					PredictedUS: r.PredictedUS, Source: r.Source,
				}
			}
			snap.Advise = append(snap.Advise, as)
		case float64:
			snap.Predict = append(snap.Predict, predictSnap{Key: it.Key, US: v})
		}
	}
	return snap
}

// decodeEntries is the one decoder, the inverse of encodeEntries: it
// returns the snapshot's entries in schema order, advise entries first.
// An advise entry naming a variant this build does not know (written by a
// newer build) is dropped, not an error, wherever it arrives from.
func decodeEntries(snap cacheSnapshot) ([]CacheItem, error) {
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: unsupported cache snapshot version %d", snap.Version)
	}
	var items []CacheItem
advise:
	for _, as := range snap.Advise {
		recs := make([]advisor.Recommendation, len(as.Recs))
		for i, rs := range as.Recs {
			kind, err := kindByName(rs.Kind)
			if err != nil {
				continue advise
			}
			recs[i] = advisor.Recommendation{
				Kind: kind, Teams: rs.Teams, Threads: rs.Threads,
				PredictedUS: rs.PredictedUS, Source: rs.Source,
			}
		}
		items = append(items, CacheItem{Key: as.Key, Val: recs})
	}
	for _, ps := range snap.Predict {
		items = append(items, CacheItem{Key: ps.Key, Val: ps.US})
	}
	return items, nil
}

// Replicate bodies carry at most maxBatchEntries entries and, unless one
// entry alone is larger, maxBatchBytes of entry JSON — well under
// maxReplicateBytes, so a receiver never rejects a batch for size. A pull
// asks for at most one batch of keys.
const (
	maxBatchEntries = 128
	maxBatchBytes   = 1 << 20
)

// entryBatch is one replicate body in the making: the snapshot schema with
// every entry already marshaled, so sizing a batch and sending it share
// the same bytes.
type entryBatch struct {
	Version int               `json:"version"`
	Advise  []json.RawMessage `json:"advise"`
	Predict []json.RawMessage `json:"predict"`

	keys []string
	size int
}

// marshalBatches encodes items and splits them into replicate bodies under
// the batch bounds, marshaling each entry once; keys[i] lists the entries
// bodies[i] carries. An entry that does not marshal is skipped.
func marshalBatches(items []CacheItem) (bodies [][]byte, keys [][]string) {
	snap := encodeEntries(items)
	b := entryBatch{Version: snapshotVersion}
	flush := func() {
		if len(b.keys) > 0 {
			body, _ := json.Marshal(b) // cannot fail: every entry is valid JSON
			bodies = append(bodies, body)
			keys = append(keys, b.keys)
		}
		b = entryBatch{Version: snapshotVersion}
	}
	add := func(key string, entry any, section *[]json.RawMessage) {
		raw, err := json.Marshal(entry)
		if err != nil {
			return
		}
		if len(b.keys) == maxBatchEntries || (len(b.keys) > 0 && b.size+len(raw) > maxBatchBytes) {
			flush()
		}
		*section = append(*section, raw)
		b.keys = append(b.keys, key)
		b.size += len(raw)
	}
	for _, as := range snap.Advise {
		add(as.Key, as, &b.Advise)
	}
	for _, ps := range snap.Predict {
		add(ps.Key, ps, &b.Predict)
	}
	flush()
	return bodies, keys
}

// SnapshotCache writes the advise-response cache to w. Concurrent requests
// keep running; the snapshot is a consistent-enough point-in-time copy
// (each shard is walked under its lock).
func (s *Server) SnapshotCache(w io.Writer) error {
	return json.NewEncoder(w).Encode(encodeEntries(s.adviseCache.Items()))
}

// RestoreCache refills the advise-response cache from a SnapshotCache
// stream, returning how many entries were restored. Entries are re-added
// oldest-first so the snapshot's recency order survives the LRU. Restoring
// on top of a warm cache is safe: keys are content hashes, so collisions
// are identical answers.
func (s *Server) RestoreCache(r io.Reader) (int, error) {
	var snap cacheSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return 0, fmt.Errorf("serve: decoding cache snapshot: %w", err)
	}
	items, err := decodeEntries(snap)
	if err != nil {
		return 0, err
	}
	for i := len(items) - 1; i >= 0; i-- {
		s.adviseCache.Add(items[i].Key, items[i].Val)
	}
	return len(items), nil
}

// SaveCacheFile snapshots the cache to path atomically (temp file in the
// same directory, then rename), so a crash mid-snapshot never truncates the
// previous good snapshot.
func (s *Server) SaveCacheFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := s.SnapshotCache(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadCacheFile restores the cache from a SaveCacheFile snapshot. A missing
// file is not an error (first boot): it returns (0, nil).
func (s *Server) LoadCacheFile(path string) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return s.RestoreCache(f)
}
