package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// measureLayers is the traced run. It first drives the workload untraced
// on streams of a derived seed (the baseline for the tracing overhead),
// then drives the seed's own streams with trace ids, collecting every
// request's server spans and the tier's /metrics before and after, then
// replays the seed's inputs through the modules' public functions. The
// two phases split the measured seconds.
func measureLayers(w workload, d *deployment, o *oracle, seed int64, dur time.Duration, times []setupTimes) (result, error) {
	urls := d.urls()
	ctx := context.Background()

	runtime.GC()
	base := newRecorder(seed, nil)
	drive(w, d, seed+1_000_003, dur/2, base)

	t := newTracer()
	r := newRecorder(seed, t)
	before, err := scrapeAll(ctx, urls)
	if err != nil {
		return result{}, err
	}
	drive(w, d, seed, dur/2, r)
	after, err := scrapeAll(ctx, urls)
	if err != nil {
		return result{}, err
	}
	delta := func(name, match string) float64 { return after.sum(name, match) - before.sum(name, match) }

	batchMean := ratio(delta("serve_batch_size_sum", ""), delta("serve_batch_size_count", ""))
	rp, err := replay(t, d, replayInputs(w, d, seed), int(math.Round(batchMean)))
	if err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	base.runTape(o)
	r.runTape(o)
	r.tapeHot(o, d)
	base.recs = append(base.recs, r.recs...)
	base.wrong = append(base.wrong, r.wrong...)
	base.tapeFailed += r.tapeFailed
	base.tapeChecked += r.tapeChecked
	attempted, failed := outcome(base)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{v, unit}
		report(name, v, unit, "")
	}

	// The primary class's median, traced and untraced, frames the layer
	// numbers and gives the tracing overhead.
	isAdvise := func(x rec) bool { return x.class == classAdvise }
	tracedP50, errT := percentile(latencies(r, isAdvise), 0.5)
	baseP50, errB := percentile(latencies(base, isAdvise), 0.5)
	if errT == nil && errB == nil {
		report("advise_p50_ms (traced)", tracedP50, "ms", "")
		report("advise_p50_ms (untraced)", baseP50, "ms", "")
	}
	put("trace.overhead_frac", ratio(tracedP50-baseP50, baseP50), "fraction")
	put("unaccounted_frac", t.unaccounted(), "fraction")
	fmt.Printf("perfbench traces collected=%d missing=%d span_capped=%d\n", len(t.server), t.missing, t.dropped)

	// Front end.
	put("variants.generate_us", mean(rp.generateUS), "us")
	put("cparse.parse_us", mean(rp.parseUS), "us")
	put("cparse.ast_nodes", mean(rp.astNodes), "count")
	put("paragraph.build_us", mean(rp.buildUS), "us")
	put("paragraph.graph_nodes", mean(rp.graphNodes), "count")
	put("paragraph.graph_edges", mean(rp.graphEdges), "count")
	put("gnn.encode_us", mean(rp.encodeUS), "us")

	// Advisor.
	put("advisor.grid_points", mean(rp.gridPoints), "count")
	put("advisor.encode_cache_hit_ratio", ratio(float64(rp.encHits), float64(rp.encHits+rp.encMisses)), "fraction")
	put("advisor.advise_ms", mean(rp.adviseMS), "ms")

	// Engine. FLOPs and bytes are computed from tensor sizes, not measured.
	put("gnn.predict_us", mean(rp.predictUS), "us")
	put("gnn.predict_batch_us_per_sample", rp.batchUSPerSample, "us")
	put("gnn.flops_per_sample", mean(rp.flops), "flop")
	put("gnn.bytes_per_sample", mean(rp.bytes), "B")
	fmt.Println("perfbench note gnn.flops_per_sample and gnn.bytes_per_sample are computed from tensor sizes, not measured")

	// Batcher.
	put("serve.queue_wait_us", t.stageMeanUS("queue_wait"), "us")
	put("serve.predict_span_us", t.stageMeanUS("predict"), "us")
	put("serve.batch_size_mean", batchMean, "count")
	coalesced := 0.0
	if n := delta("serve_batch_size_sum", ""); n > 0 {
		coalesced = 1 - delta("serve_batch_size_bucket", `le="1"`)/n
	}
	put("serve.batch_coalesced_ratio", coalesced, "fraction")

	// Admission.
	put("admit.pool_wait_us", t.stageMeanUS("pool_wait"), "us")
	put("admit.shed_frac", ratio(delta("serve_shed_total", ""), float64(len(r.samples))), "fraction")

	// Cache and handler.
	put("serve.decode_us", t.stageMeanUS("decode"), "us")
	put("serve.cache_lookup_us", t.stageMeanUS("cache_lookup"), "us")
	hits, misses := delta("serve_cache_hits_total", `cache="advise"`), delta("serve_cache_misses_total", `cache="advise"`)
	put("serve.advise_cache_hit_ratio", ratio(hits, hits+misses), "fraction")
	var handler, bytes []float64
	forwarded := 0
	for _, s := range r.samples {
		if s.fail != failNone {
			continue
		}
		if s.class != classPredict {
			handler = append(handler, s.handler*1000)
		}
		bytes = append(bytes, float64(s.bytes))
		if s.servedBy != "" && !s.local {
			forwarded++
		}
	}
	put("serve.handler_us", mean(handler), "us")
	put("serve.wire_us", t.wireUS(), "us")
	put("serve.response_bytes", mean(bytes), "B")

	// Shard.
	put("shard.forward_us", t.stageMeanUS("forward"), "us")
	put("shard.forwarded_share", ratio(float64(forwarded), float64(len(bytes))), "fraction")
	put("shard.replicate_per_eval", ratio(delta("serve_cluster_replication_writes_total", ""),
		delta("serve_pool_evaluations_total", "")), "count")

	// Set-up stages, medians over the repeated set-ups.
	stage := func(f func(setupTimes) float64) float64 {
		var xs []float64
		for _, st := range times {
			xs = append(xs, f(st))
		}
		return median(xs)
	}
	put("setup.train_s", stage(func(s setupTimes) float64 { return s.train }), "s")
	put("setup.registry_open_s", stage(func(s setupTimes) float64 { return s.open }), "s")
	put("setup.boot_s", stage(func(s setupTimes) float64 { return s.boot }), "s")
	put("setup.warm_s", stage(func(s setupTimes) float64 { return s.warm }), "s")

	// Harness.
	var late []float64
	for _, s := range r.samples {
		if s.class != classAdvise {
			late = append(late, s.lateMS)
		}
	}
	put("gen.late_ms", mean(late), "ms")

	dir := filepath.Join(buildDir(), "perfbench-traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := t.write(path); err != nil {
		return res, err
	}
	fmt.Printf("perfbench spans written=%d file=%s\n", len(t.spans), path)
	return res, nil
}
