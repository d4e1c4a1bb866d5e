package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"paragraph/internal/obs"
	"paragraph/internal/shard"
)

// Elastic membership wiring: this file connects the shard.Membership state
// machine to the serving tier. Three background loops run per cluster-mode
// process — a join loop that announces the peer to a seed until admitted,
// a heartbeat loop that gossips the epoch-stamped view (and sweeps silent
// members into eviction), and an anti-entropy loop that diffs Ring.Owners
// against the local cache and pulls the replica entries this peer should
// hold but does not, so a rejoined or freshly added peer converges to full
// warmth without waiting on traffic. The /v1/cluster/* endpoints are the
// wire surface: join and gossip carry membership views, leave triggers a
// planned-departure drain, and keys/entry serve the anti-entropy pulls
// (entry doubles as the request path's read-repair source).
//
// Cache entries move between peers on two primitives over one codec
// (snapshot.go): pushEntries POSTs batches to /v1/replicate (drain; the
// write-through is its fire-and-forget one-entry sibling), and pullEntries
// GETs batches from /v1/cluster/entry (anti-entropy and read repair).

// maxGossipBytes bounds one gossip or join body; views are a few hundred
// bytes per member.
const maxGossipBytes = 1 << 20

// handleCluster routes the /v1/cluster/* surface. Every endpoint requires
// cluster mode; the sub-routes are dispatched here rather than registered
// individually so non-cluster servers keep a single 409 surface, and each
// route's method is checked here once.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.fail(w, http.StatusConflict, "cluster endpoints require cluster mode")
		return
	}
	var (
		method string
		handle http.HandlerFunc
	)
	switch strings.TrimPrefix(r.URL.Path, "/v1/cluster/") {
	case "join":
		method, handle = http.MethodPost, s.handleClusterJoin
	case "gossip":
		method, handle = http.MethodPost, s.handleClusterGossip
	case "leave":
		method, handle = http.MethodPost, s.handleClusterLeave
	case "keys":
		method, handle = http.MethodGet, s.handleClusterKeys
	case "entry":
		method, handle = http.MethodGet, s.handleClusterEntry
	default:
		s.fail(w, http.StatusNotFound, "unknown cluster endpoint")
		return
	}
	if r.Method != method {
		s.fail(w, http.StatusMethodNotAllowed, "%s required", method)
		return
	}
	handle(w, r)
}

// joinRequest is the POST /v1/cluster/join body.
type joinRequest struct {
	// Peer is the joining process's base URL as the cluster reaches it.
	Peer string `json:"peer"`
}

// handleClusterJoin admits a peer: its record enters the view at an
// incarnation above any tombstone it left behind, the ring rebuilds under
// a new epoch, and the merged view goes back so the joiner adopts the
// cluster's full record set in one round trip. Any member can admit —
// "seed" is a role the joiner picks, not a special node.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGossipBytes)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad join body: %v", err)
		return
	}
	peer, err := NormalizePeerURL(req.Peer)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	c := s.cluster
	if peer != c.self {
		c.joinsIn.Add(1)
	}
	s.writeJSON(w, http.StatusOK, c.mem.Join(peer))
}

// handleClusterGossip answers one heartbeat exchange: merge the sender's
// view, note the contact as proof of life, and reply with the local view
// so the exchange converges both directions (push-pull).
func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	var view shard.View
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGossipBytes)).Decode(&view); err != nil {
		s.fail(w, http.StatusBadRequest, "bad gossip body: %v", err)
		return
	}
	if view.From == "" {
		s.fail(w, http.StatusBadRequest, "gossip view missing sender")
		return
	}
	c := s.cluster
	c.gossipIn.Add(1)
	c.mem.Observe(view.From)
	c.mem.Merge(view)
	s.writeJSON(w, http.StatusOK, c.mem.View())
}

// handleClusterLeave starts this peer's planned departure: announce the
// departure tombstone, stream owned keys to their new owners, and report
// what moved. The process keeps serving (local-only) afterwards — exiting
// is the operator's next step, or SIGTERM's, which runs the same drain
// and finds it already done.
func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.DrainCluster(r.Context()))
}

// clusterKeysResponse is the GET /v1/cluster/keys payload: the local
// advise-response cache's key list, the anti-entropy diff source.
type clusterKeysResponse struct {
	Epoch uint64   `json:"epoch"`
	Keys  []string `json:"keys"`
}

// handleClusterKeys lists the local cache's keys. Keys are content hashes
// — cheap to ship and meaningless without the entries — and the list is
// what a sweeping peer diffs against Ring.Owners to find entries it
// should hold.
func (s *Server) handleClusterKeys(w http.ResponseWriter, r *http.Request) {
	items := s.adviseCache.Items()
	resp := clusterKeysResponse{Epoch: s.cluster.mem.Epoch(), Keys: make([]string, 0, len(items))}
	for _, it := range items {
		resp.Keys = append(resp.Keys, it.Key)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleClusterEntry serves the cache entries named by repeated ?key=
// parameters (at most maxBatchEntries) in the replicate wire schema,
// feeding anti-entropy refills and read repairs. The response holds the
// subset this peer has, capped at one replicate batch (marshalBatches);
// keys a capped response left out go to their next holder, or to the
// next sweep. It reads through Peek so peer probes distort neither
// recency nor the hit/miss counters, and 404s when it holds none of the
// keys — the puller tries the next holder.
func (s *Server) handleClusterEntry(w http.ResponseWriter, r *http.Request) {
	keys := r.URL.Query()["key"]
	if len(keys) == 0 || slices.Contains(keys, "") {
		s.fail(w, http.StatusBadRequest, "key required")
		return
	}
	if len(keys) > maxBatchEntries {
		s.fail(w, http.StatusBadRequest, "at most %d keys per request", maxBatchEntries)
		return
	}
	var found []CacheItem
	for _, key := range keys {
		if v, ok := s.adviseCache.Peek(key); ok {
			found = append(found, CacheItem{Key: key, Val: v})
		}
	}
	bodies, _ := marshalBatches(found)
	if len(bodies) == 0 {
		s.fail(w, http.StatusNotFound, "no entry for key")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(bodies[0])
}

// --- background loops ---

// startClusterLoops launches the join, gossip and anti-entropy loops.
// Called by EnableCluster when Heartbeat >= 0; Server.Close stops them.
func (s *Server) startClusterLoops() {
	c := s.cluster
	if len(c.seeds) > 0 {
		c.bg.Add(1)
		go s.joinLoop()
	}
	c.bg.Add(1)
	go c.every(c.heartbeat, s.gossipOnce)
	if c.antiEntropy > 0 {
		c.bg.Add(1)
		go c.every(c.antiEntropy, s.antiEntropyOnce)
	}
}

// stop terminates the background loops and the forwarder's async workers.
func (c *cluster) stop() {
	c.stopOnce.Do(func() { close(c.quit) })
	c.bg.Wait()
	c.fwd.Close()
}

// joinLoop announces this peer to its seeds until one admits it: POST
// /v1/cluster/join, merge the returned view, done. Retries every
// heartbeat — a seed that is itself still starting is the normal case
// during a fleet boot.
func (s *Server) joinLoop() {
	c := s.cluster
	defer c.bg.Done()
	ticker := time.NewTicker(c.heartbeat)
	defer ticker.Stop()
	for !s.tryJoin() {
		select {
		case <-c.quit:
			return
		case <-ticker.C:
		}
	}
}

// tryJoin attempts one join round over the seeds, returning success.
func (s *Server) tryJoin() bool {
	c := s.cluster
	body, err := json.Marshal(joinRequest{Peer: c.self})
	if err != nil {
		return false
	}
	for _, seed := range c.seeds {
		ctx, cancel := context.WithTimeout(context.Background(), c.heartbeat)
		var view shard.View
		err := c.fwd.Control(ctx, http.MethodPost, seed, "/v1/cluster/join", body, maxGossipBytes, &view)
		cancel()
		if err != nil {
			c.gossipErrs.Add(1)
			continue
		}
		c.mem.Merge(view)
		c.joined.Store(true)
		return true
	}
	return false
}

// every runs fn each interval until the cluster stops: the heartbeat and
// the anti-entropy loops.
func (c *cluster) every(interval time.Duration, fn func(context.Context)) {
	defer c.bg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-ticker.C:
			fn(context.Background())
		}
	}
}

// fanOut runs fn concurrently for every peer but self and waits for all.
func (c *cluster) fanOut(peers []string, fn func(peer string)) {
	var wg sync.WaitGroup
	for _, peer := range peers {
		if peer == c.self {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(peer)
		}()
	}
	wg.Wait()
}

// gossipOnce runs one heartbeat round: sweep the failure detector, beat,
// and push the local view to every other ring member concurrently,
// merging each answer back (push-pull, so one exchange converges both
// sides). Each exchange is bounded by the heartbeat interval so a hung
// peer cannot stall the round past one tick.
func (s *Server) gossipOnce(ctx context.Context) {
	c := s.cluster
	c.mem.Sweep()
	view := c.mem.Beat()
	ring := c.ring()
	if ring == nil {
		return
	}
	body, err := json.Marshal(view)
	if err != nil {
		return
	}
	c.fanOut(ring.Members(), func(peer string) {
		hopCtx, cancel := context.WithTimeout(ctx, c.heartbeat)
		defer cancel()
		var remote shard.View
		if err := c.fwd.Control(hopCtx, http.MethodPost, peer, "/v1/cluster/gossip", body, maxGossipBytes, &remote); err != nil {
			c.gossipErrs.Add(1)
			return
		}
		c.mem.Observe(peer)
		c.mem.Merge(remote)
		c.gossipOut.Add(1)
	})
}

// antiEntropyOnce is one self-healing sweep: fetch every other ring
// member's key list, keep the keys this peer owns (Ring.Owners) but does
// not hold, and pull the missing entries in batches. This is how a
// rejoined or freshly added peer converges to full replica warmth without
// client traffic — the cache-tier analogue of loading exactly the missing
// slices of a graph in large batched reads instead of recomputing them.
// The pulls run in rounds: each round asks every missing key's next
// untried holder, one goroutine per holder (so at most one pull in
// flight per ring member) and one request per maxBatchEntries chunk; a
// key a holder did not return moves on to its next holder.
func (s *Server) antiEntropyOnce(ctx context.Context) {
	c := s.cluster
	ring := c.ring()
	if ring == nil || len(ring.Members()) < 2 || c.mem.Left() {
		return
	}
	// missing maps each absent owned key to the peers advertising it that
	// have not been asked yet, in ring member order.
	missing := map[string][]string{}
	for _, peer := range ring.Members() {
		if peer == c.self {
			continue
		}
		hopCtx, cancel := context.WithTimeout(ctx, c.heartbeat+5*time.Second)
		var resp clusterKeysResponse
		err := c.fwd.Control(hopCtx, http.MethodGet, peer, "/v1/cluster/keys", nil, 0, &resp)
		cancel()
		if err != nil {
			c.aeErrs.Add(1)
			continue
		}
		for _, key := range resp.Keys {
			if _, held := s.adviseCache.Peek(key); !held && slices.Contains(ring.Owners(key, c.rf), c.self) {
				missing[key] = append(missing[key], peer)
			}
		}
	}
	for len(missing) > 0 {
		byHolder := map[string][]string{}
		for key, holders := range missing {
			byHolder[holders[0]] = append(byHolder[holders[0]], key)
		}
		c.fanOut(ring.Members(), func(holder string) {
			keys := byHolder[holder]
			sort.Strings(keys)
			for len(keys) > 0 {
				chunk := keys[:min(maxBatchEntries, len(keys))]
				keys = keys[len(chunk):]
				c.aeRefills.Add(uint64(len(s.pullEntries(ctx, c.heartbeat+5*time.Second, holder, chunk))))
			}
		})
		for key, holders := range missing {
			_, pulled := s.adviseCache.Peek(key)
			switch {
			case pulled:
				delete(missing, key)
			case len(holders) == 1:
				c.aeErrs.Add(1) // no holder returned it
				delete(missing, key)
			default:
				missing[key] = holders[1:]
			}
		}
	}
	c.aeSweeps.Add(1)
	c.lastSweepUnix.Store(time.Now().Unix())
}

// pullEntries is the one pull primitive: a single GET /v1/cluster/entry,
// bounded by timeout, asking peer for keys (at most maxBatchEntries). The
// entries it returns for keys that were asked for are inserted into the
// local cache and returned; a 404 (the peer holds none of them) or any
// failure returns none.
func (s *Server) pullEntries(ctx context.Context, timeout time.Duration, peer string, keys []string) []CacheItem {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var snap cacheSnapshot
	path := "/v1/cluster/entry?" + url.Values{"key": keys}.Encode()
	if err := s.cluster.fwd.Control(ctx, http.MethodGet, peer, path, nil, maxReplicateBytes, &snap); err != nil {
		return nil
	}
	items, err := decodeEntries(snap)
	if err != nil {
		return nil
	}
	pulled := items[:0]
	for _, it := range items {
		if slices.Contains(keys, it.Key) {
			s.adviseCache.Add(it.Key, it.Val)
			pulled = append(pulled, it)
		}
	}
	return pulled
}

// --- read repair ---

// repairedEntry marks a singleflight value that was pulled from a
// co-owner's cache instead of evaluated: the handlers render it as a cache
// hit, because it is one — the tier had the entry, just not this process.
type repairedEntry struct{ val any }

// tryRepair attempts to answer an owned miss from a co-owner's cache
// before paying a local evaluation. The window it exists for: a peer that
// just rejoined owns its old keys again but holds none of them until the
// next anti-entropy sweep; its co-owners (who replicated the entries, or
// inherited them from the departed peer's drain) still do. One bounded GET
// per co-owner is noise next to a full grid evaluation, and on a genuinely
// cold key every probe 404s fast. Returns the repaired value and whether
// repair succeeded.
func (s *Server) tryRepair(ctx context.Context, tr *obs.Trace, key string, owners []string, owned bool) (any, bool) {
	c := s.cluster
	if c == nil || !owned || len(owners) < 2 {
		return nil, false
	}
	sp := tr.StartSpan("read_repair")
	defer sp.End()
	for _, peer := range owners {
		if peer == c.self {
			continue
		}
		if items := s.pullEntries(ctx, 2*time.Second, peer, []string{key}); len(items) > 0 {
			c.readRepairs.Add(1)
			sp.Annotate(peer)
			return items[0].Val, true
		}
	}
	c.repairMisses.Add(1)
	sp.Annotate("miss")
	return nil, false
}

// --- planned departure ---

// DrainReport summarizes a planned departure: what the leaving peer owned
// and what it managed to stream to the new owners before the deadline.
type DrainReport struct {
	// AlreadyDraining reports a second drain request: the first one's
	// handoff already ran (or is running) and this call did nothing.
	AlreadyDraining bool `json:"already_draining,omitempty"`
	// Epoch is the ring version after the departure tombstone.
	Epoch uint64 `json:"epoch"`
	// OwnedKeys is how many local cache entries this peer owned under the
	// pre-departure ring; Streamed how many were delivered to at least
	// one new owner; Errors how many batch posts failed.
	OwnedKeys int `json:"owned_keys"`
	Streamed  int `json:"streamed"`
	Batches   int `json:"batches"`
	Errors    int `json:"errors"`
	// Targets are the peers that received handoff batches, sorted.
	Targets   []string `json:"targets,omitempty"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// DrainCluster executes this peer's planned departure: tombstone self in
// the membership view, push the new view to every old ring member
// synchronously (so the tier re-rings before the handoff lands), then
// push every owned cache entry to its new owners, all within
// ClusterConfig.DrainTimeout (and ctx). Idempotent — the second caller
// (POST /v1/cluster/leave followed by SIGTERM is the normal pair) gets
// AlreadyDraining and no work. Outside cluster mode it reports an empty
// drain. The process keeps serving afterwards, local-only; exiting is the
// caller's decision.
func (s *Server) DrainCluster(ctx context.Context) (report DrainReport) {
	c := s.cluster
	if c == nil {
		return DrainReport{}
	}
	if !c.draining.CompareAndSwap(false, true) {
		return DrainReport{AlreadyDraining: true, Epoch: c.mem.Epoch()}
	}
	ctx, cancel := context.WithTimeout(ctx, c.drainTimeout)
	defer cancel()
	start := time.Now()
	oldRing := c.ring()
	c.mem.Leave(c.self)
	report = DrainReport{Epoch: c.mem.Epoch()}
	defer func() { report.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000 }()
	if oldRing == nil {
		return report
	}

	// Announce first: peers that re-ring before the handoff arrives accept
	// the writes anyway (the tombstone keeps us a known member), and
	// announcing early stops them forwarding fresh misses to a peer that
	// is about to vanish.
	if view, err := json.Marshal(c.mem.View()); err == nil {
		c.fanOut(oldRing.Members(), func(peer string) {
			hopCtx, cancel := context.WithTimeout(ctx, c.heartbeat+5*time.Second)
			defer cancel()
			if err := c.fwd.Control(hopCtx, http.MethodPost, peer, "/v1/cluster/gossip", view, maxGossipBytes, nil); err != nil {
				c.gossipErrs.Add(1)
			}
		})
	}

	newRing := c.ring()
	if newRing == nil {
		// Single-member cluster: nowhere to hand keys to.
		return report
	}

	// Partition the owned entries by new owner. Every new owner gets a
	// copy (not just the ones that lack it): re-adding an existing key is
	// a cheap overwrite with identical bytes, and pushing to all owners
	// restores full replica fan-out in one pass.
	perTarget := map[string][]CacheItem{}
	for _, it := range s.adviseCache.Items() {
		if !slices.Contains(oldRing.Owners(it.Key, c.rf), c.self) {
			continue
		}
		report.OwnedKeys++
		for _, owner := range newRing.Owners(it.Key, c.rf) {
			perTarget[owner] = append(perTarget[owner], it)
		}
	}
	targets := make([]string, 0, len(perTarget))
	for t := range perTarget {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	report.Targets = targets

	streamed := map[string]bool{}
	for _, target := range targets {
		delivered, batches, failed := s.pushEntries(ctx, target, perTarget[target])
		report.Batches += batches
		report.Errors += failed
		for _, k := range delivered {
			streamed[k] = true
		}
		if ctx.Err() != nil {
			break
		}
	}
	report.Streamed = len(streamed)
	c.drainedOut.Add(uint64(report.Streamed))
	return report
}

// pushEntries is the one push primitive: it POSTs items to peer's
// /v1/replicate in marshalBatches batches over the control plane, so a
// handoff never counts as a request forward. It returns the keys the peer
// accepted, how many batches it posted and how many of those failed.
func (s *Server) pushEntries(ctx context.Context, peer string, items []CacheItem) (delivered []string, batches, failed int) {
	bodies, keys := marshalBatches(items)
	for i, body := range bodies {
		if err := s.cluster.fwd.Control(ctx, http.MethodPost, peer, "/v1/replicate", body, maxGossipBytes, nil); err != nil {
			failed++
			continue
		}
		delivered = append(delivered, keys[i]...)
	}
	return delivered, len(bodies), failed
}
