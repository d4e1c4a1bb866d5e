package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: paragraph
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGNNForward-4      	    6788	    488010 ns/op	      30 B/op	       0 allocs/op
BenchmarkGNNForward-4      	    6500	    501000 ns/op	      30 B/op	       0 allocs/op
BenchmarkGNNForward-4      	    6900	    479000 ns/op	      30 B/op	       0 allocs/op
BenchmarkPredictFastPath/tape-single-4         	     810	   2647854 ns/op	 3016627 B/op	    1401 allocs/op
BenchmarkPredictFastPath/engine-single-4       	    4215	    490776 ns/op	       0 B/op	       0 allocs/op
BenchmarkPredictFastPath/tape-batch-32-4       	      26	  96020912 ns/op	   3000652 ns/sample	96532120 B/op	   44849 allocs/op
BenchmarkPredictFastPath/engine-batch-32-4     	     128	  18457302 ns/op	    476790 ns/sample	     257 B/op	       1 allocs/op
PASS
`

func sampleBaseline() *baselineEntry {
	return &baselineEntry{
		Date: "2026-08-08", PR: 7,
		CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz",
		Results: map[string]float64{
			"tape_single_ns_op":        2650000,
			"engine_single_ns_op":      490000,
			"tape_batch32_ns_sample":   3000000,
			"engine_batch32_ns_sample": 480000,
			"single_speedup":           5.4,
		},
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("single median = %v", got)
	}
}

func TestParseBench(t *testing.T) {
	data, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if data.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", data.CPU)
	}
	if got := data.Samples["BenchmarkGNNForward|ns/op"]; len(got) != 3 {
		t.Errorf("GNNForward samples = %v, want 3 reps", got)
	}
	// The -GOMAXPROCS suffix is stripped; custom ns/sample metrics are kept
	// separately from ns/op.
	if got := data.Samples["BenchmarkPredictFastPath/engine-batch-32|ns/sample"]; len(got) != 1 || got[0] != 476790 {
		t.Errorf("engine-batch-32 ns/sample = %v", got)
	}
	if got := data.Samples["BenchmarkPredictFastPath/engine-single|ns/op"]; len(got) != 1 || got[0] != 490776 {
		t.Errorf("engine-single ns/op = %v", got)
	}

	if _, err := parseBench(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input did not error")
	}
}

// TestParseBenchNoSuffix covers single-proc runs, where Go prints no
// -GOMAXPROCS suffix: a name whose own tail is numeric (engine-batch-32)
// must still be found under its printed name.
func TestParseBenchNoSuffix(t *testing.T) {
	out := `cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPredictFastPath/engine-batch-32         	      78	  15144228 ns/op	    473256 ns/sample	     257 B/op	       1 allocs/op
`
	data, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	got := data.Samples["BenchmarkPredictFastPath/engine-batch-32|ns/sample"]
	if len(got) != 1 || got[0] != 473256 {
		t.Errorf("no-suffix engine-batch-32 ns/sample = %v", got)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	data, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	report, ok := gate(data, sampleBaseline(), 0.20)
	if !ok {
		t.Fatalf("gate failed on in-threshold run:\n%s", report)
	}
	if !strings.Contains(report, "mode: absolute") || !strings.Contains(report, "verdict: PASS") {
		t.Errorf("report:\n%s", report)
	}
}

// TestGateFailsOnSyntheticRegression is the acceptance check for the gate
// itself: a >20% engine slowdown must flip the verdict.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	slower := strings.ReplaceAll(sampleOutput,
		"4215	    490776 ns/op",
		"3000	    650000 ns/op") // engine-single +33%
	data, err := parseBench(strings.NewReader(slower))
	if err != nil {
		t.Fatal(err)
	}
	report, ok := gate(data, sampleBaseline(), 0.20)
	if ok {
		t.Fatalf("gate passed a 33%% regression:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSION") || !strings.Contains(report, "verdict: FAIL") {
		t.Errorf("report:\n%s", report)
	}
}

func TestGateIgnoresFasterRuns(t *testing.T) {
	faster := strings.ReplaceAll(sampleOutput,
		"4215	    490776 ns/op",
		"9000	    240000 ns/op")
	data, err := parseBench(strings.NewReader(faster))
	if err != nil {
		t.Fatal(err)
	}
	if report, ok := gate(data, sampleBaseline(), 0.20); !ok {
		t.Fatalf("gate failed an improvement:\n%s", report)
	}
}

func TestGateCrossCPUUsesSpeedupRatio(t *testing.T) {
	base := sampleBaseline()
	base.CPU = "Apple M2"
	data, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// Run speedup is 2647854/490776 ≈ 5.40 vs baseline 5.4: pass.
	report, ok := gate(data, base, 0.20)
	if !ok {
		t.Fatalf("ratio mode failed a matching speedup:\n%s", report)
	}
	if !strings.Contains(report, "mode: speedup ratio") {
		t.Errorf("report:\n%s", report)
	}

	// Engine 2× slower halves the speedup: fail even cross-hardware.
	slower := strings.ReplaceAll(sampleOutput,
		"4215	    490776 ns/op",
		"2000	    990000 ns/op")
	data, err = parseBench(strings.NewReader(slower))
	if err != nil {
		t.Fatal(err)
	}
	if report, ok := gate(data, base, 0.20); ok {
		t.Fatalf("ratio mode passed a halved speedup:\n%s", report)
	}
}

func TestGateMissingDataFails(t *testing.T) {
	data, err := parseBench(strings.NewReader("BenchmarkUnrelated-4 10 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if report, ok := gate(data, sampleBaseline(), 0.20); ok {
		t.Fatalf("gate passed with no tracked benchmarks:\n%s", report)
	}
	base := sampleBaseline()
	base.CPU = "other"
	if report, ok := gate(data, base, 0.20); ok {
		t.Fatalf("ratio mode passed with no tape/engine samples:\n%s", report)
	}
}

// TestGateFailsOnMissingTrackedBenchmark covers a tracked benchmark that the
// baseline records but the run omits (renamed or deleted): absolute mode
// must report it MISSING and fail rather than gate the remaining ones.
func TestGateFailsOnMissingTrackedBenchmark(t *testing.T) {
	for _, c := range comparisons {
		var kept []string
		for _, line := range strings.Split(sampleOutput, "\n") {
			if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], c.Bench+"-") {
				continue
			}
			kept = append(kept, line)
		}
		data, err := parseBench(strings.NewReader(strings.Join(kept, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		report, ok := gate(data, sampleBaseline(), 0.20)
		if ok {
			t.Errorf("gate passed a run without %s:\n%s", c.Bench, report)
		}
		if !strings.Contains(report, "MISSING") || !strings.Contains(report, "verdict: FAIL") {
			t.Errorf("without %s, report:\n%s", c.Bench, report)
		}
	}
}
