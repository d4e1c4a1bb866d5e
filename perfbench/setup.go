package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/experiments"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
)

// tierPeers and tierReplication shape the cluster workloads: three peers at
// the serve command's default replication factor.
const (
	tierPeers       = 3
	tierReplication = 2
)

// setupTimes is one set-up's cost, split by stage.
type setupTimes struct {
	train, open, boot, warm float64 // seconds
}

func (t setupTimes) total() float64 { return t.train + t.open + t.boot + t.warm }

// peer is one in-process advisor server on a loopback listener.
type peer struct {
	srv  *serve.Server
	reg  *registry.Registry
	hs   *http.Server
	url  string
	done chan struct{}
}

// deployment is what a workload runs against: the checkpoints, the peers,
// and the references taken while warming.
type deployment struct {
	dir   string // checkpoint root
	peers []*peer
	hot   []serve.AdviseRequest // pre-warmed working set (tier workloads)
	ref   [][]byte              // ranking tail of each hot key's first answer
	// order maps a Zipf rank to a hot key, per entry peer (see rankOrder).
	order [][]int
}

// trainCheckpoints trains the tiny V100 and POWER9 ParaGraph models and
// saves them as registry checkpoints under dir.
func trainCheckpoints(dir string) error {
	scale := experiments.Tiny()
	scale.Epochs = 2
	scale.MaxPerPlatform = 40
	runner := experiments.NewRunner(scale)
	for _, m := range machines {
		tr, err := runner.Trained(m, paragraph.LevelParaGraph)
		if err != nil {
			return fmt.Errorf("training %s: %w", m.Name, err)
		}
		_, err = registry.Save(dir, m, "default", paragraph.LevelParaGraph, tr.Model, tr.Prep, registry.TrainInfo{
			Scale: scale.Name, Epochs: scale.Epochs,
			TrainSamples: len(tr.Prep.Train), ValSamples: len(tr.Prep.Val),
			FinalValRMSE: tr.Hist.FinalValRMSE(),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// backends turns a registry into serving backends, as `serve -model-dir`
// does.
func backends(reg *registry.Registry) []serve.Backend {
	var out []serve.Backend
	for _, e := range reg.Entries() {
		out = append(out, serve.Backend{
			Machine: e.Machine, Model: e, Prep: e.Prep, Name: e.Manifest.Name, Default: reg.Default(e),
			Info: &serve.ModelInfo{Level: e.Level, Source: "checkpoint"},
		})
	}
	return out
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// peerPort is peer i's loopback port for a seed. Peers are named by URL
// on the hash ring, so fixed ports give a seed the same key ownership on
// every run; a port in use falls back to any free one.
func peerPort(seed int64, i int) int {
	return 20000 + int(uint64(seed)%4000)*tierPeers + i
}

// startPeer serves reg on a loopback port (see peerPort) with default
// options.
func startPeer(reg *registry.Registry, port int) (*peer, error) {
	srv, err := serve.NewServer(backends(reg), serve.Options{Logger: quietLogger})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &peer{srv: srv, reg: reg, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		if err := p.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return p, nil
}

func (p *peer) stop() {
	p.hs.Close()
	<-p.done
	p.srv.Close()
}

// stop shuts every peer down and removes the checkpoints.
func (d *deployment) stop() {
	for _, p := range d.peers {
		p.stop()
	}
	os.RemoveAll(d.dir)
}

// setUp builds one deployment for w: train and save checkpoints, open one
// registry per peer, boot the peers (as a replicated tier when the workload
// needs one), then warm them.
func setUp(w workload, seed int64, dir string) (*deployment, setupTimes, error) {
	var t setupTimes
	d := &deployment{dir: dir}
	fail := func(err error) (*deployment, setupTimes, error) {
		d.stop()
		return nil, t, err
	}

	start := time.Now()
	if err := trainCheckpoints(dir); err != nil {
		return fail(err)
	}
	t.train = time.Since(start).Seconds()

	n := 1
	if w.tier {
		n = tierPeers
	}
	start = time.Now()
	regs := make([]*registry.Registry, n)
	for i := range regs {
		reg, err := registry.Open(dir, registry.Options{})
		if err != nil {
			return fail(err)
		}
		regs[i] = reg
	}
	t.open = time.Since(start).Seconds()

	start = time.Now()
	for i, reg := range regs {
		p, err := startPeer(reg, peerPort(seed, i))
		if err != nil {
			return fail(err)
		}
		d.peers = append(d.peers, p)
	}
	if w.tier {
		urls := d.urls()
		for i, p := range d.peers {
			if err := p.srv.EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls, Replication: tierReplication}); err != nil {
				return fail(err)
			}
		}
	}
	t.boot = time.Since(start).Seconds()

	start = time.Now()
	if err := d.warm(w, seed); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	t.warm = time.Since(start).Seconds()
	return d, t, nil
}

func (d *deployment) urls() []string {
	out := make([]string, len(d.peers))
	for i, p := range d.peers {
		out[i] = p.url
	}
	return out
}

// warmUpRequests is how many cold advises prime a single server's code
// paths before measurement. They come from their own lane, so no measured
// request can hit what they cached.
const warmUpRequests = 4

// hotSetSize is the tier working set: one full advise round (every kernel
// twice on the GPU, once on the CPU), so every seed's set has the same mix
// of grid sizes; and well under the advise cache's 512 entries per peer, so
// every measured hot request is a cache hit.
var hotSetSize = len(apps.Kernels()) * (gpuWeight + 1)

// warm primes the deployment. A single server gets a few cold advises; a
// tier gets its whole working set, evaluated once (each owner writes
// through to its replica), then asked again at every peer to confirm each
// key is warm everywhere. The first answer per key is the reference later
// hits must equal.
func (d *deployment) warm(w workload, seed int64) error {
	c := newClient(clientConns)
	defer c.close()
	if !w.tier {
		reqs := newGen(seed, laneWarmUp).hotSet(warmUpRequests)
		return parallel(clientConns, len(reqs), func(i int) error {
			return c.adviseOK(d.peers[0].url, reqs[i])
		})
	}
	d.hot = newGen(seed, laneHotSet).hotSet(hotSetSize)
	d.ref = make([][]byte, len(d.hot))
	err := parallel(clientConns, len(d.hot), func(i int) error {
		r := c.post(d.peers[i%len(d.peers)].url, "/v1/advise", d.hot[i], "")
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("pre-warm %s: status %d: %v", d.hot[i].Kernel, r.status, r.err)
		}
		resp, err := decodeAdvise(r.body)
		if err != nil {
			return err
		}
		if err := checkAdviseShape(d.hot[i], resp); err != nil {
			return err
		}
		d.ref[i] = recsTail(r.body)
		return nil
	})
	if err != nil {
		return err
	}
	if err := d.awaitReplication(); err != nil {
		return err
	}
	local := make([][]bool, len(d.peers))
	for p := range local {
		local[p] = make([]bool, len(d.hot))
	}
	err = parallel(clientConns, len(d.hot)*len(d.peers), func(j int) error {
		i, p := j/len(d.peers), d.peers[j%len(d.peers)]
		r := c.post(p.url, "/v1/advise", d.hot[i], "")
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm check: status %d: %v", r.status, r.err)
		}
		resp, err := decodeAdvise(r.body)
		if err != nil {
			return err
		}
		if !resp.Cached || string(recsTail(r.body)) != string(d.ref[i]) {
			return fmt.Errorf("warm check: %s at %s not a hit equal to its first answer", d.hot[i].Kernel, p.url)
		}
		local[j%len(d.peers)][i] = resp.ServedBy == p.url
		return nil
	})
	if err != nil {
		return err
	}
	sizes, pattern := gridSizes(d.hot)
	d.order = make([][]int, len(d.peers))
	for p := range d.peers {
		d.order[p] = rankOrder(local[p], sizes, pattern)
	}
	return nil
}

// rankOrder deals hot keys to Zipf ranks so that every seed puts the same
// kind of key at each rank, and so sends the same share of requests to
// forwarded keys and to each grid size. Ranks 2, 5, 8, ... want a key the
// peer does not hold, the others one it holds, and rank r wants a grid of
// pattern[r] points. Each rank takes the first unused key, in hot-set
// order, that matches both; failing that, one that matches the holding;
// failing that, any.
func rankOrder(local []bool, size, pattern []int) []int {
	used := make([]bool, len(local))
	order := make([]int, 0, len(local))
	for r := range local {
		wantLocal := r%3 != 2
		pick := -1
		for pass := 0; pass < 3 && pick < 0; pass++ {
			for i := range local {
				if used[i] || (pass < 2 && local[i] != wantLocal) || (pass == 0 && size[i] != pattern[r]) {
					continue
				}
				pick = i
				break
			}
		}
		used[pick] = true
		order = append(order, pick)
	}
	return order
}

// gridSizes returns the grid size of each request, and the grid sizes of
// one advise round in suite order: the seed-independent pattern rankOrder
// deals against.
func gridSizes(reqs []serve.AdviseRequest) (sizes, pattern []int) {
	space := advisor.DefaultSearchSpace()
	for _, req := range reqs {
		k, _ := apps.ByName(req.Kernel)
		m, _ := hw.ByName(req.Machine)
		sizes = append(sizes, len(gridPoints(k, m, space)))
	}
	for _, k := range apps.Kernels() {
		for _, m := range machines {
			n := 1
			if m.IsGPU {
				n = gpuWeight
			}
			for i := 0; i < n; i++ {
				pattern = append(pattern, len(gridPoints(k, m, space)))
			}
		}
	}
	return sizes, pattern
}

// awaitReplication waits until every peer's write-through queue is empty.
func (d *deployment) awaitReplication() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		idle := true
		for _, p := range d.peers {
			m, err := scrape(ctx, p.url)
			if err != nil {
				return err
			}
			if m.sum("serve_cluster_replication_queue_depth", "") > 0 {
				idle = false
			}
		}
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replication queues did not drain")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// parallel runs f(0..n-1) on `workers` goroutines and returns the first
// error.
func parallel(workers, n int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// setUpRepeated sets up `repeats` times, keeping only the last deployment,
// so set-up time is reported as a median rather than one noisy reading.
func setUpRepeated(w workload, seed int64, work string, repeats int) (*deployment, []setupTimes, error) {
	var times []setupTimes
	var d *deployment
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.stop()
		}
		var t setupTimes
		var err error
		d, t, err = setUp(w, seed, filepath.Join(work, fmt.Sprintf("ckpt-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
	}
	return d, times, nil
}
