package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/cast"
	"paragraph/internal/cparse"
	"paragraph/internal/gnn"
	"paragraph/internal/graph"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
	"paragraph/internal/variants"
)

// replayRequests is how many of a workload's advise inputs the layer
// replay pushes through the modules' public functions. The count is fixed,
// not timed, so the replay's counts repeat exactly for a seed.
const replayRequests = 12

// replayInputs returns the first advise inputs the workload's first
// closed-loop client sends, drawn from the same seeded streams.
func replayInputs(w workload, d *deployment, seed int64) []serve.AdviseRequest {
	out := make([]serve.AdviseRequest, replayRequests)
	switch w.name {
	case "warm-tier":
		z := newZipf(seed, 0, len(d.hot))
		for i := range out {
			out[i] = d.hot[d.order[0][z.next()]]
		}
	default: // cold-grid and the hot-cold-mix bulk client
		g := newGen(seed, laneClient0)
		for i := range out {
			out[i] = g.advise()
		}
	}
	return out
}

// directPredictor scores through a registry entry's model with no batcher:
// the advisor's compute floor.
type directPredictor struct{ e *registry.Entry }

func (p directPredictor) Predict(s *gnn.Sample) float64 {
	return p.e.PredictBatch([]*gnn.Sample{s})[0]
}

// countingCache is an advisor encode cache that counts hits and misses.
type countingCache struct {
	mu           sync.Mutex
	m            map[string]*gnn.Graph
	hits, misses int
}

func (c *countingCache) Get(key string) (*gnn.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return g, ok
}

func (c *countingCache) Add(key string, g *gnn.Graph) {
	c.mu.Lock()
	c.m[key] = g
	c.mu.Unlock()
}

// replayResult is what the layer replay measured.
type replayResult struct {
	generateUS, parseUS, buildUS, encodeUS, predictUS []float64
	astNodes, graphNodes, graphEdges                  []float64
	flops, bytes                                      []float64
	adviseMS, gridPoints                              []float64
	encHits, encMisses                                int
	batchUSPerSample                                  float64
}

// replay runs the workload's advise inputs through the front end
// (variants.Generate, cparse.ParseFunction, paragraph.Build, gnn.Encode),
// the engine (a direct single-sample predict) and advisor.AdviseCtx with a
// direct predictor, each call under its own span. batch is the mean batch
// size the server formed; the engine is also timed at that size.
func replay(t *tracer, d *deployment, reqs []serve.AdviseRequest, batch int) (replayResult, error) {
	var res replayResult
	reg := d.peers[0].reg
	cache := &countingCache{m: map[string]*gnn.Graph{}}
	advisors := map[string]*advisor.Advisor{}
	entries := map[string]*registry.Entry{}
	for _, m := range machines {
		e, err := reg.Lookup(m.Name, "")
		if err != nil {
			return res, err
		}
		a := advisor.New(directPredictor{e}, e.Prep, e.Machine)
		a.SetLevel(e.Level)
		a.SetEncodeCache(cache)
		advisors[m.Name], entries[m.Name] = a, e
	}
	var samples []*gnn.Sample
	var sampleEntries []*registry.Entry
	for _, req := range reqs {
		k, ok := apps.ByName(req.Kernel)
		if !ok {
			return res, fmt.Errorf("unknown kernel %q", req.Kernel)
		}
		m, err := hw.ByName(req.Machine)
		if err != nil {
			return res, err
		}
		e := entries[req.Machine]
		root := t.add(0, "replay.request", "", time.Now(), time.Now())
		var recs []advisor.Recommendation
		var aerr error
		dt := t.replaySpan(root, "advisor.advise", func() {
			recs, aerr = advisors[req.Machine].AdviseCtx(context.Background(), k, req.Bindings, advisor.DefaultSearchSpace())
		})
		if aerr != nil {
			return res, aerr
		}
		res.adviseMS = append(res.adviseMS, ms(dt))
		res.gridPoints = append(res.gridPoints, float64(len(recs)))

		for _, pt := range gridPoints(k, m, advisor.DefaultSearchSpace()) {
			s, err := replayPoint(t, root, &res, e, k, pt, req.Bindings)
			if err != nil {
				return res, err
			}
			samples = append(samples, s)
			sampleEntries = append(sampleEntries, e)
		}
		t.mu.Lock()
		t.spans[root-1].EndUS = t.us(time.Now())
		t.mu.Unlock()
	}
	res.encHits, res.encMisses = cache.hits, cache.misses
	res.batchUSPerSample = timeBatches(samples, sampleEntries, batch)
	return res, nil
}

// replayPoint pushes one grid point through the front end and the engine,
// recording per-stage spans, sizes and the computed cost. Build runs on the
// already-parsed AST, so its span excludes parsing.
func replayPoint(t *tracer, root int, res *replayResult, e *registry.Entry, k apps.Kernel, pt point,
	bindings map[string]float64) (*gnn.Sample, error) {
	kind, err := kindByName(pt.variant)
	if err != nil {
		return nil, err
	}
	parent := t.add(root, "frontend.point", "", time.Now(), time.Now())
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	var src string
	dt := t.replaySpan(parent, "variants.generate", func() { src, err = variants.Generate(k, kind, pt.teams, pt.threads) })
	if err != nil {
		return nil, err
	}
	res.generateUS = append(res.generateUS, us(dt))

	var ast *cast.Node
	dt = t.replaySpan(parent, "cparse.parse", func() { ast, err = cparse.ParseFunction(src) })
	if err != nil {
		return nil, err
	}
	res.parseUS = append(res.parseUS, us(dt))
	res.astNodes = append(res.astNodes, float64(ast.Size()))

	var g *graph.Graph
	dt = t.replaySpan(parent, "paragraph.build", func() {
		g, err = paragraph.Build(ast, paragraph.Options{Level: e.Level, Threads: pt.threads, Bindings: bindings})
	})
	if err != nil {
		return nil, err
	}
	res.buildUS = append(res.buildUS, us(dt))
	res.graphNodes = append(res.graphNodes, float64(g.NumNodes()))
	res.graphEdges = append(res.graphEdges, float64(g.NumEdges()))

	var eg *gnn.Graph
	dt = t.replaySpan(parent, "gnn.encode", func() { eg, err = gnn.Encode(g, int(paragraph.NumEdgeTypes)) })
	if err != nil {
		return nil, err
	}
	res.encodeUS = append(res.encodeUS, us(dt))
	eg.WScale = e.Prep.WScale
	s := &gnn.Sample{G: eg, Feats: [2]float64{
		e.Prep.TeamScaler.Scale(float64(pt.teams)),
		e.Prep.ThreadScaler.Scale(float64(pt.threads)),
	}}

	dt = t.replaySpan(parent, "gnn.predict", func() { e.PredictBatch([]*gnn.Sample{s}) })
	res.predictUS = append(res.predictUS, us(dt))
	f, b := forwardCost(e.Manifest.Config, e.Manifest.Params, eg)
	res.flops = append(res.flops, f)
	res.bytes = append(res.bytes, b)

	t.mu.Lock()
	t.spans[parent-1].EndUS = t.us(time.Now())
	t.mu.Unlock()
	return s, nil
}

// timeBatches times the engine on the replayed samples in batches of the
// size the server formed, and returns microseconds per sample. Each batch
// holds samples of one model.
func timeBatches(samples []*gnn.Sample, entries []*registry.Entry, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	var total time.Duration
	n := 0
	for i := 0; i < len(samples); {
		j := i + 1
		for j < len(samples) && j-i < batch && entries[j] == entries[i] {
			j++
		}
		start := time.Now()
		entries[i].PredictBatch(samples[i:j])
		total += time.Since(start)
		n += j - i
		i = j
	}
	return ratio(float64(total.Nanoseconds())/1e3, float64(n))
}

// forwardCost is one sample's forward pass cost, computed from tensor
// sizes rather than measured: floating-point operations and bytes moved
// for the model shape cfg (params scalar weights) on graph g, following
// the engine's structure. Per RGAT layer it counts the self projection
// over every node, each relation's projection over its distinct source
// nodes, attention scores over distinct endpoints, and per-edge
// logit/softmax/weight-scale/message work; then the mean readout and the
// dense head. Bytes count the float32 weights read once, float32
// activations read and written per layer, and per layer the edge arrays
// (two 8-byte indices and one 8-byte log-weight per edge).
func forwardCost(cfg gnn.Config, params int, g *gnn.Graph) (flops, bytes float64) {
	N, H, F := float64(g.NumNodes), float64(cfg.Hidden), float64(cfg.FeatHidden)
	flops = 3 * N * H // kind + sub-kind embeddings + feature projection
	var act, edgeBytes float64
	for l := 0; l < cfg.Layers; l++ {
		flops += 2*N*H*H + 2*N*H // self projection, bias, activation
		act += 2 * N * H
		for r := range g.Rels {
			rel := &g.Rels[r]
			E := float64(len(rel.Src))
			if E == 0 {
				continue
			}
			U, D := float64(distinct(rel.Src)), float64(distinct(rel.Dst))
			flops += 2*U*H*H + 2*H*(U+D) + E*(9+2*H)
			act += 2*U*H + E*H
			edgeBytes += 24 * E
		}
	}
	flops += N*H + 2*(2*H*H+H) + 2*2*F + F + 2*(H+F) + 1 // readout and head
	bytes = 4*float64(params) + 4*act + edgeBytes
	return flops, bytes
}

func distinct(xs []int) int {
	seen := make(map[int]struct{}, len(xs))
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}
