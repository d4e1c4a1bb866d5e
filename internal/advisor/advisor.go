// Package advisor reassembles the paper's end-to-end use case: the role
// OpenMP Advisor (§II-D) plays with ParaGraph as its cost model. Given a
// serial benchmark kernel, it generates candidate OpenMP variants (code
// transformation), predicts each one's runtime statically with a trained
// cost model (kernel analysis + cost model), and returns them ranked — no
// execution required at inference time, the paper's key advantage over
// online autotuners (§II-E).
package advisor

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/obs"
	"paragraph/internal/paragraph"
	"paragraph/internal/variants"
)

// Predictor is the cost-model interface: a scaled-runtime regressor over
// encoded samples. Unless it also implements BatchPredictor, Advise fans
// its Predict calls across goroutines (see SetWorkers), so implementations
// must be safe for concurrent Predict calls — or the advisor must be
// pinned to SetWorkers(1). *gnn.Model is safe (each call builds its own
// forward pass over read-only weights).
type Predictor interface {
	Predict(*gnn.Sample) float64
}

// BatchPredictor is the interface the advisor predicts through: one call
// scores a whole variant grid. The serving batcher (internal/serve)
// implements it, threading the request context through so a
// request-scoped trace (internal/obs) receives its queue-wait and predict
// spans, and so cancellation propagates: it may return ctx.Err() instead
// of values when the caller gave up. New adapts a plain Predictor, which
// stays untraced and uncancellable.
type BatchPredictor interface {
	PredictBatchCtx(context.Context, []*gnn.Sample) ([]float64, error)
}

// perSample adapts a plain Predictor to BatchPredictor: one Predict per
// sample, fanned across the advisor's grid workers.
type perSample struct {
	p Predictor
	a *Advisor
}

func (ps perSample) PredictBatchCtx(_ context.Context, ss []*gnn.Sample) ([]float64, error) {
	out := make([]float64, len(ss))
	ps.a.fanOut(len(ss), func(i int) { out[i] = ps.p.Predict(ss[i]) })
	return out, nil
}

// EncodeCache memoizes the parse→BuildKernel→Encode pipeline across Advise
// calls: Get returns a previously encoded graph for a content key, Add
// stores one. Implementations must be safe for concurrent use; cached
// graphs are treated as immutable (EncodeInstance copies the header before
// applying per-advisor scaling). internal/serve provides a sharded LRU
// implementation.
type EncodeCache interface {
	Get(key string) (*gnn.Graph, bool)
	Add(key string, g *gnn.Graph)
}

// Advisor ranks kernel variants by predicted runtime on one machine.
type Advisor struct {
	model    BatchPredictor
	prep     *dataset.Prepared // training-time scalers
	machine  hw.Machine
	level    paragraph.Level
	workers  int         // grid-evaluation goroutines; 0 = GOMAXPROCS
	encCache EncodeCache // nil = no memoization
}

// New builds an advisor from a trained predictor and the Prepared dataset
// it was trained on (whose scalers must be reused at inference). A model
// that implements BatchPredictor scores each grid in one call.
func New(model Predictor, prep *dataset.Prepared, machine hw.Machine) *Advisor {
	a := &Advisor{prep: prep, machine: machine, level: paragraph.LevelParaGraph}
	if bp, ok := model.(BatchPredictor); ok {
		a.model = bp
	} else {
		a.model = perSample{model, a}
	}
	return a
}

// SetLevel selects the representation level EncodeInstance builds graphs
// at. The default is LevelParaGraph; it must match the level the predictor
// was trained on (registry checkpoints record theirs in the manifest).
func (a *Advisor) SetLevel(l paragraph.Level) { a.level = l }

// SetWorkers bounds the goroutines Advise fans the variant grid's
// generate→encode chains (and a plain Predictor's calls) across. n <= 0
// restores the default (GOMAXPROCS); n == 1 recovers the serial evaluation
// order exactly.
func (a *Advisor) SetWorkers(n int) { a.workers = n }

// SetEncodeCache injects a cache for encoded graphs, letting repeated
// Advise calls (and grid points sharing a source) skip the expensive
// parse→build→encode pipeline. Pass nil to disable.
func (a *Advisor) SetEncodeCache(c EncodeCache) { a.encCache = c }

// SearchSpace is the variant/parallelism grid to rank.
type SearchSpace struct {
	CPUThreads []int // used on CPU machines
	GPUTeams   []int // used on GPU machines
	GPUThreads []int
}

// DefaultSearchSpace mirrors the dataset sweep.
func DefaultSearchSpace() SearchSpace {
	return SearchSpace{
		CPUThreads: []int{1, 2, 4, 8, 16, 22, 24},
		GPUTeams:   []int{16, 64, 128, 256},
		GPUThreads: []int{64, 128, 256},
	}
}

// Recommendation is one ranked candidate.
type Recommendation struct {
	Kind        variants.Kind
	Teams       int
	Threads     int
	PredictedUS float64
	Source      string // the transformed kernel, ready to drop in
}

// Advise enumerates the machine-compatible variants of kernel k under
// bindings, predicts each statically, and returns them sorted by predicted
// runtime (fastest first). Each grid point's generate→encode chain is
// independent, so the grid is fanned out across SetWorkers goroutines; the
// encoded grid is then scored in one predict call. Results keep the serial
// enumeration order before the stable sort, so the ranking is identical to
// a one-worker run.
func (a *Advisor) Advise(k apps.Kernel, bindings analysis.Env, space SearchSpace) ([]Recommendation, error) {
	return a.AdviseCtx(context.Background(), k, bindings, space)
}

// AdviseCtx is Advise with a request context: a trace attached to ctx
// (obs.WithTrace) receives per-stage spans — grid_encode around grid
// enumeration and the fan-out, with an encode span per pipeline run inside
// it; queue wait and predict from a batching BatchPredictor; rank around
// descaling and the final sort.
func (a *Advisor) AdviseCtx(ctx context.Context, k apps.Kernel, bindings analysis.Env, space SearchSpace) ([]Recommendation, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	enc := tr.StartSpan("grid_encode")
	type pt struct {
		kind           variants.Kind
		teams, threads int
	}
	var grid []pt
	for _, kind := range variants.Kinds() {
		if kind.IsGPU() != a.machine.IsGPU {
			continue
		}
		if kind.IsCollapse() && !k.Collapsible {
			continue
		}
		if kind.IsGPU() {
			for _, g := range space.GPUTeams {
				for _, t := range space.GPUThreads {
					grid = append(grid, pt{kind, g, t})
				}
			}
		} else {
			for _, t := range space.CPUThreads {
				grid = append(grid, pt{kind, 0, t})
			}
		}
	}
	if len(grid) == 0 {
		enc.End()
		return nil, fmt.Errorf("advisor: no %s-compatible variants for kernel %q",
			machineClass(a.machine), k.Name)
	}

	srcs := make([]string, len(grid))
	samples := make([]*gnn.Sample, len(grid))
	errs := make([]error, len(grid))
	a.fanOut(len(grid), func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		g := grid[i]
		srcs[i], errs[i] = variants.Generate(k, g.kind, g.teams, g.threads)
		if errs[i] != nil {
			return
		}
		samples[i], errs[i] = a.EncodeInstanceCtx(ctx, variants.Instance{
			Kernel: k, Kind: g.kind, Teams: g.teams, Threads: g.threads,
			Bindings: bindings, Source: srcs[i],
		})
	})
	enc.End()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("advisor: variant %s g%d t%d: %w",
				grid[i].kind, grid[i].teams, grid[i].threads, err)
		}
	}
	preds, err := a.model.PredictBatchCtx(ctx, samples)
	if err != nil {
		return nil, fmt.Errorf("advisor: predict: %w", err)
	}
	rank := tr.StartSpan("rank")
	recs := make([]Recommendation, len(grid))
	for i, g := range grid {
		recs[i] = Recommendation{
			Kind: g.kind, Teams: g.teams, Threads: g.threads,
			PredictedUS: a.prep.DescaleUS(preds[i]), Source: srcs[i],
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].PredictedUS < recs[j].PredictedUS })
	rank.End()
	return recs, nil
}

// Best returns the top recommendation.
func (a *Advisor) Best(k apps.Kernel, bindings analysis.Env, space SearchSpace) (Recommendation, error) {
	recs, err := a.Advise(k, bindings, space)
	if err != nil {
		return Recommendation{}, err
	}
	return recs[0], nil
}

// PredictInstanceUS statically predicts one instance's runtime in
// microseconds, applying the training-time feature and target scalers.
func (a *Advisor) PredictInstanceUS(in variants.Instance) (float64, error) {
	return a.PredictInstanceUSCtx(context.Background(), in)
}

// PredictInstanceUSCtx is PredictInstanceUS with a request context,
// passed to the predictor as a one-sample batch.
func (a *Advisor) PredictInstanceUSCtx(ctx context.Context, in variants.Instance) (float64, error) {
	s, err := a.EncodeInstanceCtx(ctx, in)
	if err != nil {
		return 0, err
	}
	v, err := a.model.PredictBatchCtx(ctx, []*gnn.Sample{s})
	if err != nil {
		return 0, err
	}
	return a.prep.DescaleUS(v[0]), nil
}

// fanOut runs fn(0), …, fn(n-1) across the advisor's workers (SetWorkers);
// with one worker they run in order on the calling goroutine.
func (a *Advisor) fanOut(n int, fn func(i int)) {
	workers := a.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// EncodeInstance builds the model-ready sample for an unseen instance,
// consulting the encode cache (when injected) before running the
// parse→BuildKernel→Encode pipeline.
func (a *Advisor) EncodeInstance(in variants.Instance) (*gnn.Sample, error) {
	return a.EncodeInstanceCtx(context.Background(), in)
}

// EncodeInstanceCtx is EncodeInstance with a request context: a cache miss
// that runs the encode pipeline records an "encode" span on the context's
// trace, annotated with the error when the pipeline fails (cache hits record
// nothing — they cost microseconds).
func (a *Advisor) EncodeInstanceCtx(ctx context.Context, in variants.Instance) (*gnn.Sample, error) {
	var key string
	var eg *gnn.Graph
	if a.encCache != nil {
		key = EncodeKey(in.Source, a.level, in.Threads, in.Bindings)
		if g, ok := a.encCache.Get(key); ok {
			eg = g
		}
	}
	if eg == nil {
		sp := obs.TraceFrom(ctx).StartSpan("encode")
		// Thread-count division matches dataset.Prepare (see the note there).
		g, err := paragraph.BuildKernel(in.Source, paragraph.Options{
			Level:    a.level,
			Threads:  in.Threads,
			Bindings: in.Bindings,
		})
		if err == nil {
			eg, err = gnn.Encode(g, int(paragraph.NumEdgeTypes))
		}
		if err != nil {
			// End the span on failure too: rejected kernels belong in traces.
			sp.Annotate("error: " + err.Error())
			sp.End()
			return nil, err
		}
		if a.encCache != nil {
			a.encCache.Add(key, eg)
		}
		sp.End()
	}
	// Copy the graph header before applying this advisor's weight scaling:
	// the cache may be shared between advisors trained with different
	// WScale, and cached entries must stay immutable. The edge/feature
	// slices are shared (read-only during prediction).
	scaled := *eg
	scaled.WScale = a.prep.WScale
	return &gnn.Sample{
		G: &scaled,
		Feats: [2]float64{
			a.prep.TeamScaler.Scale(float64(in.Teams)),
			a.prep.ThreadScaler.Scale(float64(in.Threads)),
		},
		Name: in.Name(),
	}, nil
}

// EncodeKey is the content-addressed cache key of one encode-pipeline
// result: a hash over everything BuildKernel+Encode read — the transformed
// source, the representation level, the weight-dividing thread count, and
// the size bindings (serialized in sorted order so the key is stable).
// Teams are deliberately absent: they feed the runtime-configuration
// features, not the graph.
func EncodeKey(source string, level paragraph.Level, threads int, bindings analysis.Env) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\x00%d\x00%s\x00", level, threads, BindingsKey(bindings))
	b.WriteString(source)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// BindingsKey renders size bindings deterministically (sorted name=value
// pairs) for content-addressed cache keys. EncodeKey and the serving
// layer's response keys share it so the two cache levels cannot drift in
// how they canonicalize the same request.
func BindingsKey(bindings analysis.Env) string {
	names := make([]string, 0, len(bindings))
	for name := range bindings {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%g;", name, bindings[name])
	}
	return b.String()
}

func machineClass(m hw.Machine) string {
	if m.IsGPU {
		return "GPU"
	}
	return "CPU"
}
