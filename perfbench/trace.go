package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"paragraph/internal/obs"
)

// span is one benchmark-owned span: a client request, the server trace it
// produced, one of that trace's stage spans, or a call the layer replay
// made into a module's public function. Times are microseconds since the
// run started; Parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"` // trace id shared by one request's spans
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	SelfUS  int64  `json:"self_us"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer is an untraced phase: every method is a no-op.
type tracer struct {
	origin time.Time
	c      *client

	mu      sync.Mutex
	spans   []span
	missing int // requests whose server trace had left the ring
	dropped int // server traces that hit the per-trace span cap
	// server holds each request's entry-peer trace, for the per-layer
	// aggregation.
	server []serverTrace
}

type serverTrace struct {
	s  *sample
	ft obs.FinishedTrace
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), c: newClient(1)}
}

// id names request i of client n; "" when untraced, so no header is sent.
func (t *tracer) id(n, i int) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("pb-%d-%d", n, i)
}

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.origin).Microseconds() }

// add records a span and returns its id.
func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: req, StartUS: t.us(start), EndUS: t.us(end)})
	return id
}

// collect records the client span of a finished request and fetches the
// entry peer's trace for it from /v1/trace, right away, before the ring of
// recent traces turns over.
func (t *tracer) collect(d *deployment, s *sample) {
	if t == nil || s.traceID == "" {
		return
	}
	sent := s.start.Add(time.Duration(s.lateMS * float64(time.Millisecond)))
	end := s.start.Add(time.Duration(s.latency * float64(time.Millisecond)))
	root := t.add(0, "client."+s.class.String(), s.traceID, sent, end)
	var ft obs.FinishedTrace
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := t.c.get(ctx, d.peers[s.entry].url, "/v1/trace?id="+url.QueryEscape(s.traceID), &ft); err != nil {
		t.mu.Lock()
		t.missing++
		t.mu.Unlock()
		return
	}
	srvEnd := ft.Start.Add(time.Duration(ft.DurationMS * float64(time.Millisecond)))
	srv := t.add(root, "server."+ft.Endpoint, s.traceID, ft.Start, srvEnd)
	for _, sp := range ft.Spans {
		st := ft.Start.Add(time.Duration(sp.StartUS) * time.Microsecond)
		t.add(srv, "server."+sp.Name, s.traceID, st, st.Add(time.Duration(sp.DurUS)*time.Microsecond))
	}
	t.mu.Lock()
	if ft.SpansDropped > 0 {
		t.dropped++
	}
	t.server = append(t.server, serverTrace{s: s, ft: ft})
	t.mu.Unlock()
}

// replaySpan times f as a span under parent.
func (t *tracer) replaySpan(parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(parent, name, "", start, end)
	return end.Sub(start)
}

// selfTimes fills each span's self time: its duration minus the part of it
// covered by the union of its children.
func selfTimes(spans []span) {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartUS, s.EndUS})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.SelfUS = (s.EndUS - s.StartUS) - covered(children[s.ID], s.StartUS, s.EndUS)
	}
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write computes self times and writes every span as one JSON line.
func (t *tracer) write(path string) error {
	selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageMeanUS is the mean duration of the server spans named stage across
// every collected trace (0 when none occurred).
func (t *tracer) stageMeanUS(stage string) float64 {
	var xs []float64
	for _, st := range t.server {
		for _, sp := range st.ft.Spans {
			if sp.Name == stage {
				xs = append(xs, float64(sp.DurUS))
			}
		}
	}
	return mean(xs)
}

// unaccounted is the mean share of client latency (from send) that no measured layer
// covers: handler time outside every stage span. The wire (client latency
// minus handler time) is itself measured, as serve.wire_us. Traces that hit
// the per-trace span cap are left out, since their coverage is incomplete.
func (t *tracer) unaccounted() float64 {
	var xs []float64
	for _, st := range t.server {
		sent := st.s.latency - st.s.lateMS
		if st.ft.SpansDropped > 0 || st.ft.Status != 200 || sent <= 0 {
			continue
		}
		var iv [][2]int64
		for _, sp := range st.ft.Spans {
			iv = append(iv, [2]int64{sp.StartUS, sp.StartUS + sp.DurUS})
		}
		dur := int64(st.ft.DurationMS * 1000)
		gap := dur - covered(iv, 0, dur)
		xs = append(xs, float64(gap)/(sent*1000))
	}
	return mean(xs)
}

// wireUS is the mean client latency minus server handler time.
func (t *tracer) wireUS() float64 {
	var xs []float64
	for _, st := range t.server {
		sent := st.s.latency - st.s.lateMS
		xs = append(xs, (sent-st.ft.DurationMS)*1000)
	}
	return mean(xs)
}
