package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// warmAndSnapshot runs one advise and one predict through a fresh server
// and returns the snapshot plus the responses that produced it.
func warmAndSnapshot(t testing.TB) (snap []byte, advise AdviseResponse, predict PredictResponse) {
	t.Helper()
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), &advise); rec.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
	}
	preq := PredictRequest{
		Kernel: "matmul", Machine: "NVIDIA V100 (GPU)",
		Variant: "gpu", Teams: 64, Threads: 128,
		Bindings: map[string]float64{"n": 256},
	}
	if rec := do(t, s, http.MethodPost, "/v1/predict", preq, &predict); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body.String())
	}
	var buf bytes.Buffer
	if err := s.SnapshotCache(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), advise, predict
}

func TestCacheSnapshotRestoreRoundTrip(t *testing.T) {
	snap, advise, predict := warmAndSnapshot(t)

	// A second process: same backends, fresh caches, restored snapshot.
	s2 := newTestServer(t)
	n, err := s2.RestoreCache(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("restored %d entries, want 2", n)
	}

	var warm AdviseResponse
	do(t, s2, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), &warm)
	if !warm.Cached {
		t.Error("restored advise entry missed")
	}
	if len(warm.Recommendations) != len(advise.Recommendations) {
		t.Fatalf("restored ranking has %d recs, want %d", len(warm.Recommendations), len(advise.Recommendations))
	}
	for i := range advise.Recommendations {
		if warm.Recommendations[i] != advise.Recommendations[i] {
			t.Errorf("restored rec %d = %+v, want %+v", i, warm.Recommendations[i], advise.Recommendations[i])
		}
	}

	var warmP PredictResponse
	do(t, s2, http.MethodPost, "/v1/predict", PredictRequest{
		Kernel: "matmul", Machine: "NVIDIA V100 (GPU)",
		Variant: "gpu", Teams: 64, Threads: 128,
		Bindings: map[string]float64{"n": 256},
	}, &warmP)
	if !warmP.Cached || warmP.PredictedUS != predict.PredictedUS {
		t.Errorf("restored predict = %+v, want cached %v", warmP, predict.PredictedUS)
	}
}

func TestCacheSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	s := newTestServer(t)
	var advise AdviseResponse
	do(t, s, http.MethodPost, "/v1/advise", adviseReq("IBM POWER9 (CPU)"), &advise)
	if err := s.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t)
	n, err := s2.LoadCacheFile(path)
	if err != nil || n != 1 {
		t.Fatalf("LoadCacheFile = %d, %v, want 1 entry", n, err)
	}
	var warm AdviseResponse
	do(t, s2, http.MethodPost, "/v1/advise", adviseReq("IBM POWER9 (CPU)"), &warm)
	if !warm.Cached {
		t.Error("file-restored advise entry missed")
	}
}

func TestLoadCacheFileMissingIsFine(t *testing.T) {
	s := newTestServer(t)
	n, err := s.LoadCacheFile(filepath.Join(t.TempDir(), "absent.json"))
	if n != 0 || err != nil {
		t.Errorf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
}

func TestRestoreCacheRejectsGarbage(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.RestoreCache(strings.NewReader("not json")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := s.RestoreCache(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future snapshot version accepted")
	}
}

// unknownVariantBody holds two entries: one naming a variant no build
// knows, and a good one.
const unknownVariantBody = `{"version":1,"advise":[{"key":"k1","recs":[{"kind":"warp_simd","threads":8,"predicted_us":1}]},{"key":"k2","recs":[{"kind":"cpu","threads":8,"predicted_us":2}]}],"predict":null}`

// TestRestoreCacheDropsUnknownVariants pins the one decoder's policy on
// every path entries arrive by — snapshot stream, /v1/replicate body and
// /v1/cluster/entry pull response: an entry naming an unknown variant is
// dropped and the good entry beside it lands.
func TestRestoreCacheDropsUnknownVariants(t *testing.T) {
	cases := []struct {
		name    string
		deliver func(t *testing.T, peers []*elasticPeer) int
	}{
		{"snapshot stream", func(t *testing.T, peers []*elasticPeer) int {
			n, err := peers[0].srv.RestoreCache(strings.NewReader(unknownVariantBody))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}},
		{"replicate body", func(t *testing.T, peers []*elasticPeer) int {
			rec := doRaw(t, peers[0].srv, http.MethodPost, "/v1/replicate", []byte(unknownVariantBody), peers[1].url)
			var accepted struct {
				Accepted int `json:"accepted"`
			}
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &accepted) != nil {
				t.Fatalf("replicate: %d %s", rec.Code, rec.Body.String())
			}
			return accepted.Accepted
		}},
		{"pull response", func(t *testing.T, peers []*elasticPeer) int {
			holder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write([]byte(unknownVariantBody))
			}))
			defer holder.Close()
			return len(peers[0].srv.pullEntries(context.Background(), time.Second, holder.URL, []string{"k1", "k2"}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peers := startElasticCluster(t, 2, 1, ClusterConfig{Heartbeat: -1})
			if n := tc.deliver(t, peers); n != 1 {
				t.Errorf("accepted %d entries, want 1", n)
			}
			cache := peers[0].srv.adviseCache
			if _, ok := cache.Peek("k1"); ok {
				t.Error("entry with an unknown variant landed")
			}
			if _, ok := cache.Peek("k2"); !ok {
				t.Error("good entry beside the unknown one was dropped")
			}
		})
	}
}

// decodeBody parses a snapshot-schema document the way a pull does and
// runs the one decoder over it.
func decodeBody(data []byte) ([]CacheItem, error) {
	var snap cacheSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	return decodeEntries(snap)
}

// FuzzDecodeEntries feeds arbitrary bytes to the one cache-entry decoder:
// it must never panic, and whatever it accepts must come back unchanged
// through the replicate-batch encoder and the decoder again.
func FuzzDecodeEntries(f *testing.F) {
	snap, _, _ := warmAndSnapshot(f)
	f.Add(snap)
	f.Add([]byte("not json"))
	f.Add([]byte(`{"version": 99}`))
	f.Add([]byte(unknownVariantBody))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := decodeBody(data)
		if err != nil {
			return
		}
		bodies, _ := marshalBatches(items)
		var again []CacheItem
		for _, body := range bodies {
			batch, err := decodeBody(body)
			if err != nil {
				t.Fatalf("re-decoding %s: %v", body, err)
			}
			again = append(again, batch...)
		}
		if !reflect.DeepEqual(again, items) {
			t.Fatalf("round trip changed the entries:\n got %#v\nwant %#v", again, items)
		}
	})
}

// TestSnapshotItemsOrder sanity-checks the Items walk the snapshot is
// built from: every live entry appears, before and after recency updates.
func TestSnapshotItemsOrder(t *testing.T) {
	c := NewCache(64)
	c.Add(Key("a"), 1)
	c.Add(Key("b"), 2)
	items := c.Items()
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	// Touch "a" so it becomes most recent in its shard; a fresh Items walk
	// must reflect that when both landed in the same shard, and in any case
	// must still list both.
	c.Get(Key("a"))
	items = c.Items()
	seen := map[string]bool{}
	for _, it := range items {
		seen[it.Key] = true
	}
	if !seen[Key("a")] || !seen[Key("b")] {
		t.Errorf("items missing keys: %+v", items)
	}
}
