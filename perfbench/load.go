package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"paragraph/internal/serve"
)

// workload is one named traffic mix.
type workload struct {
	name string
	tier bool // runs against the replicated 3-peer tier
}

var workloads = []workload{
	{name: "cold-grid"},
	{name: "warm-tier", tier: true},
	{name: "hot-cold-mix", tier: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// openLoopRate is the hot-cold-mix open-loop client's fixed arrival rate,
// alternating hot-set hits and fresh predicts.
const openLoopRate = 40 // requests per second

// class is a request class.
type class uint8

const (
	classAdvise  class = iota // closed-loop advise clients
	classHit                  // open-loop hot-set advise hits
	classPredict              // open-loop fresh single-variant predicts
)

func (c class) String() string { return [...]string{"advise", "hit", "predict"}[c] }

// sample is one measured request.
type sample struct {
	class    class
	entry    int       // index of the peer the client sent it to
	start    time.Time // client send instant (open loop: due instant)
	latency  float64   // ms; open loop counts from the due instant
	lateMS   float64   // open loop: how late the generator sent it
	servedBy string
	local    bool    // answered by the entry peer itself
	handler  float64 // ms, the response's elapsed_ms (advise only)
	bytes    int
	traceID  string
	fail     failKind
}

// failKind is why a request failed; every kind counts in failed_frac.
type failKind uint8

const (
	failNone      failKind = iota
	failTransport          // no answer: connection or read error
	failStatus             // an answer other than 200 or 503
	failShed               // 503: shed by admission control
	failWrong              // a 200 answer the oracle rejects
	numFailKinds
)

// tapeJob is an answer kept for the deferred tape check.
type tapeJob struct {
	adv  *serve.AdviseRequest
	advR serve.AdviseResponse
	pre  *serve.PredictRequest
	preR serve.PredictResponse
	s    *sample
}

// rec is what a phase keeps of each request: eight bytes, so the harness's
// own memory barely grows with the request count.
type rec struct {
	latency float32 // ms
	class   class
	fail    failKind
	local   bool
}

// recorder collects one phase's requests from every client goroutine.
type recorder struct {
	mu      sync.Mutex
	recs    []rec
	samples []*sample // full records, kept in traced phases only
	tape    []tapeJob
	wrong   []string // first few oracle messages, for the report
	// tapeChecked counts answers re-scored through the tape; tapeFailed
	// those that passed the inline checks but failed the tape.
	tapeChecked, tapeFailed int
	tapeRNG                 *rand.Rand
	tracer                  *tracer // nil outside traced phases
}

func newRecorder(seed int64, tr *tracer) *recorder {
	return &recorder{tapeRNG: rand.New(rand.NewSource(seed*31 + 17)), tracer: tr}
}

// Share of answers whose every prediction is re-scored through the tape,
// and the cap per phase so the deferred check stays short.
const (
	tapeAdviseShare  = 0.125
	tapePredictShare = 0.5
	tapeCap          = 48
)

func (r *recorder) add(s *sample) {
	r.mu.Lock()
	r.recs = append(r.recs, rec{latency: float32(s.latency), class: s.class, fail: s.fail, local: s.local})
	if r.tracer != nil {
		r.samples = append(r.samples, s)
	}
	r.mu.Unlock()
}

func (r *recorder) markWrong(s *sample, err error) {
	s.fail = failWrong
	r.noteWrong(err)
}

// noteWrong keeps the first few oracle messages for the report.
func (r *recorder) noteWrong(err error) {
	r.mu.Lock()
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, err.Error())
	}
	r.mu.Unlock()
}

// wantTape draws whether this answer joins the seeded tape-check sample.
func (r *recorder) wantTape(share float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tape) < tapeCap && r.tapeRNG.Float64() < share
}

func (r *recorder) keepTape(j tapeJob) {
	r.mu.Lock()
	r.tape = append(r.tape, j)
	r.mu.Unlock()
}

// classify fills the transport/status outcome of a reply into s and
// reports whether the body is a 200 answer worth checking.
func classify(s *sample, rp reply) bool {
	s.bytes = len(rp.body)
	switch {
	case rp.err != nil:
		s.fail = failTransport
	case rp.status == http.StatusServiceUnavailable:
		s.fail = failShed
	case rp.status != http.StatusOK:
		s.fail = failStatus
	default:
		return true
	}
	return false
}

// doFresh sends one fresh advise request and checks its answer: full grid,
// sorted, finite, with a seeded share kept for the tape check.
func (r *recorder) doFresh(c *client, d *deployment, entry int, req serve.AdviseRequest, s *sample, traceID string) {
	rp := c.post(d.peers[entry].url, "/v1/advise", req, traceID)
	s.latency += ms(rp.latency)
	if !classify(s, rp) {
		return
	}
	resp, err := decodeAdvise(rp.body)
	if err != nil {
		r.markWrong(s, err)
		return
	}
	s.servedBy, s.handler = resp.ServedBy, resp.ElapsedMS
	s.local = s.servedBy == d.peers[entry].url
	if err := checkAdviseShape(req, resp); err != nil {
		r.markWrong(s, err)
		return
	}
	if r.wantTape(tapeAdviseShare) {
		req := req
		r.keepTape(tapeJob{adv: &req, advR: resp, s: s})
	}
}

// doHot sends one working-set request; its ranking must equal the first
// answer for the key byte for byte.
func (r *recorder) doHot(c *client, d *deployment, entry, key int, s *sample, traceID string) {
	rp := c.post(d.peers[entry].url, "/v1/advise", d.hot[key], traceID)
	s.latency += ms(rp.latency)
	if !classify(s, rp) {
		return
	}
	var head struct {
		ServedBy  string  `json:"served_by"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	tail := recsTail(rp.body)
	head0 := bytes.TrimSuffix(rp.body[:len(rp.body)-len(tail)], []byte(","))
	if err := json.Unmarshal(append(append([]byte(nil), head0...), '}'), &head); err != nil {
		r.markWrong(s, fmt.Errorf("hot answer header: %v", err))
		return
	}
	s.servedBy, s.handler = head.ServedBy, head.ElapsedMS
	s.local = s.servedBy == d.peers[entry].url
	if !bytes.Equal(tail, d.ref[key]) {
		r.markWrong(s, fmt.Errorf("hot key %d (%s on %s): ranking differs from its first answer", key, d.hot[key].Kernel, d.hot[key].Machine))
	}
}

// doPredict sends one fresh predict request and checks it.
func (r *recorder) doPredict(c *client, d *deployment, entry int, req serve.PredictRequest, s *sample, traceID string) {
	rp := c.post(d.peers[entry].url, "/v1/predict", req, traceID)
	s.latency += ms(rp.latency)
	if !classify(s, rp) {
		return
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		r.markWrong(s, err)
		return
	}
	s.servedBy = resp.ServedBy
	s.local = s.servedBy == d.peers[entry].url
	if err := checkPredictShape(req, resp); err != nil {
		r.markWrong(s, err)
		return
	}
	if r.wantTape(tapePredictShare) {
		req := req
		r.keepTape(tapeJob{pre: &req, preR: resp, s: s})
	}
}

// runTape re-scores the kept answers through the reference tape, after the
// timed window so the check costs the measurement nothing.
func (r *recorder) runTape(o *oracle) {
	for _, j := range r.tape {
		var err error
		if j.adv != nil {
			err = o.checkAdviseTape(*j.adv, j.advR)
		} else {
			err = o.checkPredictTape(*j.pre, j.preR)
		}
		r.tapeChecked++
		if err != nil {
			r.tapeFailed++
			r.markWrong(j.s, err)
		}
	}
}

// tapeHot re-scores every working-set reference through the tape: the
// answers that each hot hit was compared with byte for byte.
func (r *recorder) tapeHot(o *oracle, d *deployment) {
	for i, tail := range d.ref {
		resp, err := decodeAdvise(append([]byte("{"), tail...))
		if err == nil {
			err = o.checkAdviseTape(d.hot[i], resp)
		}
		r.tapeChecked++
		if err != nil {
			r.tapeFailed++
			r.noteWrong(fmt.Errorf("hot key %d reference: %w", i, err))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// drive runs workload w against d for dur and records every request.
// Closed-loop clients send their next request when the previous answer
// arrives; the open-loop client sends on a fixed schedule and times each
// request from its due instant.
func drive(w workload, d *deployment, seed int64, dur time.Duration, r *recorder) {
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	closed := func(n, entry int, next func(c *client, s *sample, id string)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(1)
			defer c.close()
			for i := 0; time.Now().Before(end); i++ {
				s := &sample{class: classAdvise, entry: entry, start: time.Now()}
				id := r.tracer.id(n, i)
				next(c, s, id)
				s.traceID = id
				r.tracer.collect(d, s)
				r.add(s)
			}
		}()
	}
	switch w.name {
	case "cold-grid":
		for n := 0; n < clientConns; n++ {
			g := newGen(seed, laneClient0+n)
			closed(n, 0, func(c *client, s *sample, id string) {
				r.doFresh(c, d, 0, g.advise(), s, id)
			})
		}
	case "warm-tier":
		for n := 0; n < clientConns; n++ {
			z, entry := newZipf(seed, n, len(d.hot)), n
			closed(n, entry, func(c *client, s *sample, id string) {
				r.doHot(c, d, entry, d.order[entry][z.next()], s, id)
			})
		}
	case "hot-cold-mix":
		g := newGen(seed, laneClient0)
		closed(0, 0, func(c *client, s *sample, id string) {
			r.doFresh(c, d, 0, g.advise(), s, id)
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			openLoop(d, seed, end, r)
		}()
	}
	wg.Wait()
}

// openLoop is the hot-cold-mix open-loop client on peer 1: due instants
// every 1/openLoopRate seconds, even ones a Zipf hot-set hit, odd ones a
// fresh predict. Requests overlap when the server is slow (one connection,
// so they queue in the client and their wait counts from the due time).
func openLoop(d *deployment, seed int64, end time.Time, r *recorder) {
	const entry = 1
	c := newClient(1)
	defer c.close()
	g := newGen(seed, laneClient1)
	z := newZipf(seed, laneClient1, len(d.hot))
	period := time.Second / openLoopRate
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			break
		}
		// Draw the request on the generator goroutine so the sequence is
		// fixed by the seed, whatever the completion order.
		var hot int
		var pre serve.PredictRequest
		class := classHit
		if i%2 == 0 {
			hot = z.next()
		} else {
			class, pre = classPredict, g.predict()
		}
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent := time.Now()
			s := &sample{class: class, entry: entry, start: due, lateMS: ms(sent.Sub(due)), latency: ms(sent.Sub(due))}
			id := r.tracer.id(2, i)
			if class == classHit {
				r.doHot(c, d, entry, d.order[entry][hot], s, id)
			} else {
				r.doPredict(c, d, entry, pre, s, id)
			}
			s.traceID = id
			r.tracer.collect(d, s)
			r.add(s)
		}(i)
	}
	wg.Wait()
}
