package main

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"paragraph/internal/advisor"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
)

func TestSameSeedSameRequests(t *testing.T) {
	draw := func(seed int64, lane int) ([]serve.AdviseRequest, []serve.PredictRequest) {
		g := newGen(seed, lane)
		var adv []serve.AdviseRequest
		var pre []serve.PredictRequest
		for i := 0; i < 60; i++ {
			adv = append(adv, g.advise())
			pre = append(pre, g.predict())
		}
		return adv, pre
	}
	a1, p1 := draw(7, laneClient0)
	a2, p2 := draw(7, laneClient0)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed and lane gave different request sequences")
	}
	a3, p3 := draw(8, laneClient0)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds gave the same request sequence")
	}
	a4, _ := draw(7, laneClient1)
	seen := map[string]bool{}
	for _, r := range a1 {
		seen[r.Kernel+r.Machine+advisor.BindingsKey(r.Bindings)] = true
	}
	for _, r := range a4 {
		if seen[r.Kernel+r.Machine+advisor.BindingsKey(r.Bindings)] {
			t.Fatalf("lanes 0 and 1 share request %+v", r)
		}
	}
	z1, z2 := newZipf(7, 0, hotSetSize), newZipf(7, 0, hotSetSize)
	for i := 0; i < 100; i++ {
		if z1.next() != z2.next() {
			t.Fatal("same seed gave different Zipf ranks")
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n      int
		q      float64
		refuse bool
	}{
		{0, 0.5, true},
		{19, 0.5, true},  // 9 beyond the median
		{20, 0.5, false}, // 10 beyond
		{99, 0.9, true},
		{100, 0.9, false},
		{999, 0.99, true},
		{1000, 0.99, false},
	} {
		v, err := percentile(xs(c.n), c.q)
		if (err != nil) != c.refuse {
			t.Errorf("n=%d q=%g: err=%v, want refusal %v", c.n, c.q, err, c.refuse)
		}
		if err == nil && v != math.Ceil(c.q*float64(c.n)) {
			t.Errorf("n=%d q=%g: got %g", c.n, c.q, v)
		}
	}
}

func TestEachFailureKindCounted(t *testing.T) {
	mode := make(chan int, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch <-mode {
		case http.StatusServiceUnavailable:
			w.WriteHeader(http.StatusServiceUnavailable)
		case http.StatusInternalServerError:
			w.WriteHeader(http.StatusInternalServerError)
		default: // a 200 whose ranking lacks the kernel's grid
			w.Write([]byte(`{"machine":"NVIDIA V100 (GPU)","cached":false,"elapsed_ms":1,"recommendations":[]}`))
		}
	}))
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	d := &deployment{peers: []*peer{{url: ts.URL}, {url: dead}}}
	r := newRecorder(1, nil)
	c := newClient(1)
	defer c.close()
	req := newGen(1, laneClient0).advise()
	for _, c2 := range []struct {
		entry, mode int
	}{{0, http.StatusServiceUnavailable}, {0, http.StatusInternalServerError}, {0, http.StatusOK}, {1, 0}} {
		if c2.entry == 0 {
			mode <- c2.mode
		}
		s := &sample{class: classAdvise, entry: c2.entry}
		r.doFresh(c, d, c2.entry, req, s, "")
		r.add(s)
	}
	var kinds [numFailKinds]int
	for _, x := range r.recs {
		kinds[x.fail]++
	}
	for _, k := range []failKind{failShed, failStatus, failWrong, failTransport} {
		if kinds[k] != 1 {
			t.Errorf("failure kind %d counted %d times, want 1", k, kinds[k])
		}
	}
	if attempted, failed := outcome(r); attempted != 4 || failed != 4 {
		t.Errorf("outcome = %d attempted, %d failed; want 4, 4", attempted, failed)
	}
}

func TestOracleFlagsPerturbedPrediction(t *testing.T) {
	dir := t.TempDir()
	if err := trainCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(dir, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := startPeer(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	c := newClient(1)
	defer c.close()
	g := newGen(3, laneClient0)
	for _, req := range []serve.AdviseRequest{g.advise(), g.advise(), g.advise()} {
		rp := c.post(p.url, "/v1/advise", req, "")
		if rp.err != nil || rp.status != http.StatusOK {
			t.Fatalf("advise: %d %v", rp.status, rp.err)
		}
		resp, err := decodeAdvise(rp.body)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAdviseShape(req, resp); err != nil {
			t.Fatalf("served answer fails the shape check: %v", err)
		}
		if err := o.checkAdviseTape(req, resp); err != nil {
			t.Fatalf("served answer fails the tape check: %v", err)
		}

		bad := resp
		bad.Recommendations = append([]serve.Recommendation(nil), resp.Recommendations...)
		bad.Recommendations[0].PredictedUS *= 1.01
		if o.checkAdviseTape(req, bad) == nil {
			t.Error("tape check accepted a prediction perturbed by 1%")
		}
		bad.Recommendations[0] = resp.Recommendations[len(resp.Recommendations)-1]
		if checkAdviseShape(req, bad) == nil {
			t.Error("shape check accepted a repeated grid point")
		}
	}

	pre := g.predict()
	rp := c.post(p.url, "/v1/predict", pre, "")
	if rp.err != nil || rp.status != http.StatusOK {
		t.Fatalf("predict: %d %v", rp.status, rp.err)
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		t.Fatal(err)
	}
	if err := checkPredictShape(pre, resp); err != nil {
		t.Fatal(err)
	}
	if err := o.checkPredictTape(pre, resp); err != nil {
		t.Fatalf("served prediction fails the tape check: %v", err)
	}
	resp.PredictedUS *= 0.99
	if o.checkPredictTape(pre, resp) == nil {
		t.Error("tape check accepted a prediction perturbed by 1%")
	}
}

func TestRankOrderMatchesHoldingAndSize(t *testing.T) {
	local := []bool{true, false, true, true, false, true}
	size := []int{7, 7, 48, 7, 48, 48}
	pattern := []int{48, 7, 48, 7, 48, 7}
	got := rankOrder(local, size, pattern)
	want := []int{2, 0, 4, 3, 5, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rankOrder = %v, want %v", got, want)
	}
}
