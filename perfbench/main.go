// Command perfbench is the repository's end-to-end benchmark of the
// advisor service. It trains tiny V100 and POWER9 checkpoints, boots the
// advisor from them (one server, or a replicated three-peer tier), drives
// one named workload over loopback HTTP from this process, and checks
// every answer against references it builds itself. BENCHMARK.json at the
// repository root lists the workloads and metrics.
//
//	perfbench --workload cold-grid|warm-tier|hot-cold-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics. With --trace 1 it
// runs the same seed's traffic with trace ids, collects the servers' spans
// from /v1/trace and their counters from /metrics, replays the inputs
// through the modules' public functions under its own spans, and reports
// the per-layer metrics. Either way, earlier lines of standard output are
// a readable report and the last line is one JSON result. The exit code is
// non-zero when any answer fails the oracle or a run cannot complete.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times each run sets up; set-up time is the
// median, and the last deployment is the one measured.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:]))
}

// metric is one named result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold-grid, warm-tier or hot-cold-mix")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	fmt.Printf("perfbench env gomaxprocs=%d cpu=%q go=%s commit=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit(), w.name, *seed, *seconds, *traced)

	work := filepath.Join(buildDir(), "perfbench-work", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(work)
	d, times, err := setUpRepeated(w, *seed, work, setupRepeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	defer d.stop()
	o, err := newOracle(d.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	if *traced == 0 {
		res, err = measure(w, d, o, *seed, dur, times)
	} else {
		res, err = measureLayers(w, d, o, *seed, dur, times)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints one metric by name and unit.
func report(name string, v float64, unit, note string) {
	fmt.Printf("perfbench metric %s = %.6g %s%s\n", name, v, unit, note)
}

// outcome summarises a phase's failures and prints them.
func outcome(r *recorder) (attempted, failed int) {
	var kinds [numFailKinds]int
	for _, x := range r.recs {
		if x.fail != failNone {
			kinds[x.fail]++
			failed++
		}
	}
	kinds[failWrong] += r.tapeFailed
	failed += r.tapeFailed
	attempted = len(r.recs)
	fmt.Printf("perfbench requests attempted=%d failed=%d transport=%d status=%d shed=%d wrong=%d tape_checked=%d\n",
		attempted, failed, kinds[failTransport], kinds[failStatus], kinds[failShed], kinds[failWrong], r.tapeChecked)
	for _, msg := range r.wrong {
		fmt.Println("perfbench wrong:", msg)
	}
	return attempted, failed
}

// latencies returns the successful latencies (ms) of requests passing keep.
func latencies(r *recorder, keep func(rec) bool) []float64 {
	var xs []float64
	for _, x := range r.recs {
		if x.fail == failNone && keep(x) {
			xs = append(xs, float64(x.latency))
		}
	}
	return xs
}

// measure is the untraced run: drive the workload, check the answers, and
// report the end-to-end metrics.
func measure(w workload, d *deployment, o *oracle, seed int64, dur time.Duration, times []setupTimes) (result, error) {
	runtime.GC()
	heap := startHeapSampler()
	r := newRecorder(seed, nil)
	start := time.Now()
	drive(w, d, seed, dur, r)
	elapsed := time.Since(start).Seconds() // to the last answer
	peak := heap.stop()
	r.runTape(o)
	r.tapeHot(o, d)
	attempted, failed := outcome(r)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	gated := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{v, unit}
		report(name, v, unit, "")
	}
	var totals []float64
	for _, t := range times {
		totals = append(totals, t.total())
	}
	gated("setup_s", median(totals), "s")
	isAdvise := func(x rec) bool { return x.class == classAdvise }
	for _, q := range []struct {
		name string
		q    float64
	}{{"advise_p50_ms", 0.5}, {"advise_p90_ms", 0.9}} {
		v, err := percentile(latencies(r, isAdvise), q.q)
		if err != nil {
			return res, fmt.Errorf("%s: %w", q.name, err)
		}
		gated(q.name, v, "ms")
	}
	gated("advise_rps", float64(len(latencies(r, isAdvise)))/elapsed, "1/s")
	gated("peak_heap_mb", peak/(1<<20), "MB")

	// Class metrics that exist on some workloads only: printed by name and
	// unit, not part of the gated result (see METRICS.md).
	extra := func(name string, xs []float64, q float64) {
		if len(xs) == 0 {
			return
		}
		v, err := percentile(xs, q)
		if err != nil {
			fmt.Printf("perfbench metric %s refused: %v\n", name, err)
			return
		}
		report(name, v, "ms", fmt.Sprintf(" (n=%d)", len(xs)))
	}
	var hits, fwd []float64
	switch w.name {
	case "warm-tier":
		hits = latencies(r, func(x rec) bool { return x.local })
		fwd = latencies(r, func(x rec) bool { return !x.local })
	case "hot-cold-mix":
		hits = latencies(r, func(x rec) bool { return x.class == classHit })
	}
	extra("hit_p50_ms", hits, 0.5)
	extra("hit_p90_ms", hits, 0.9)
	extra("hit_p99_ms", hits, 0.99)
	if w.name == "warm-tier" {
		report("hit_rps", float64(len(hits))/elapsed, "1/s", "")
	}
	extra("forwarded_p50_ms", fwd, 0.5)
	extra("forwarded_p99_ms", fwd, 0.99)
	predicts := latencies(r, func(x rec) bool { return x.class == classPredict })
	extra("predict_p50_ms", predicts, 0.5)
	extra("predict_p90_ms", predicts, 0.9)
	report("failed_frac", ratio(float64(failed), float64(attempted)), "fraction", "")
	return res, nil
}

// heapSampler tracks the peak live heap while a phase runs: the bytes the
// garbage collector last found reachable, which unlike the heap's total
// size does not depend on when collections happen to run.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

// buildDir is where the benchmark may write: the build directory the
// launcher uses, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// cpuModel names the processor, so figures from different hardware are
// never compared.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}
