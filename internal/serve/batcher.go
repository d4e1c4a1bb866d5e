package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paragraph/internal/gnn"
	"paragraph/internal/obs"
)

// BatchPredictor is the batched cost-model interface the batcher drives.
// *gnn.Model satisfies it via PredictBatch. Implementations must be safe
// for concurrent use: a batcher evaluates one batch at a time, but direct
// evaluations after Close run beside it.
type BatchPredictor interface {
	PredictBatch([]*gnn.Sample) []float64
}

// Batcher coalesces concurrently-arriving prediction requests into
// PredictBatch calls, amortizing forward-pass setup across requests. A
// request carries a sample slice: an advise submits its whole variant grid
// as one request (it implements advisor.BatchPredictor), /v1/predict a
// single sample. Predictions are identical to unbatched ones (see
// gnn.Model.PredictBatch); only latency and throughput change.
//
// A background collector flushes on idle: it dispatches as soon as it
// takes a request, first draining whatever is already queued up to
// MaxBatch samples (a request is never split, so one larger than MaxBatch
// forms a batch of its own). One evaluation runs at a time, and requests
// that arrive during it coalesce into the next one; PredictBatch spreads
// each batch over GOMAXPROCS workers, so every core stays busy without a
// batch window.
type Batcher struct {
	model    BatchPredictor
	maxBatch int

	reqs chan batchRequest

	closeOnce sync.Once
	quit      chan struct{} // closed by Close; unblocks senders and the collector
	done      chan struct{} // closed when the collector finished its last batch

	mu         sync.Mutex
	batches    uint64
	samples    uint64
	maxSeen    int
	sumBatched uint64 // total samples that shared a batch with another request

	latency   *obs.Histogram // per-request latency (enqueue → result), seconds
	sizes     *obs.Histogram // samples per evaluated batch
	unitNS    atomic.Int64   // moving average over batches of model ns per sample; written by the collector only
	queued    atomic.Int64   // samples enqueued but not yet in a model evaluation
	cancelled atomic.Uint64  // requests abandoned by their context
}

type batchRequest struct {
	ctx context.Context // caller's context; flush skips dead requests
	ss  []*gnn.Sample
	out chan []float64
	tr  *obs.Trace // originating request's trace; nil = untraced
	enq time.Time  // enqueue instant, the queue_wait span's start
}

// NewBatcher starts a batcher over model. maxBatch <= 0 defaults to 16.
// Close releases the collector goroutine.
func NewBatcher(model BatchPredictor, maxBatch int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 16
	}
	b := &Batcher{
		model:    model,
		maxBatch: maxBatch,
		reqs:     make(chan batchRequest),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		latency:  obs.NewHistogram(obs.DefLatencyBuckets),
		sizes:    obs.NewHistogram(obs.BatchSizeBuckets),
	}
	go b.collect()
	return b
}

// Predict evaluates one sample and blocks until its batch is evaluated.
// Safe for concurrent use, including racing Close.
func (b *Batcher) Predict(s *gnn.Sample) float64 {
	// Background context: never cancelled, so the error path is dead.
	v, _ := b.PredictCtx(context.Background(), s)
	return v
}

// PredictCtx is PredictBatchCtx for a single sample.
func (b *Batcher) PredictCtx(ctx context.Context, s *gnn.Sample) (float64, error) {
	out, err := b.PredictBatchCtx(ctx, []*gnn.Sample{s})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictBatchCtx enqueues ss as one request and blocks until the batch it
// lands in is evaluated. A trace attached to ctx receives one queue_wait
// and one predict span for the request; an untraced context adds no work
// to the fast path. Each call's end-to-end latency (queue wait included —
// it is what callers experience) feeds the model's latency histogram,
// surfaced per model in /v1/stats and /metrics.
//
// A context that ends returns ctx.Err() immediately — before enqueueing,
// while blocked on a busy collector, or while waiting for the batch to
// evaluate. A request abandoned after enqueue is not orphaned work: flush
// drops dead-context requests from the batch before the model runs, and
// the buffered result channel means a flush racing the abandonment leaks
// nothing. A request that misses the collector because of Close is
// answered by a direct (unbatched) forward pass instead of panicking or
// hanging.
func (b *Batcher) PredictBatchCtx(ctx context.Context, ss []*gnn.Sample) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		b.cancelled.Add(1)
		return nil, err
	}
	if len(ss) == 0 {
		return nil, nil
	}
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	out := make(chan []float64, 1)
	n := int64(len(ss))
	b.queued.Add(n)
	select {
	case b.reqs <- batchRequest{ctx: ctx, ss: ss, out: out, tr: tr, enq: start}:
		select {
		case v := <-out:
			b.latency.Observe(time.Since(start).Seconds())
			return v, nil
		case <-ctx.Done():
			// The request is in the collector's hands; flush sees the dead
			// context and skips it. queued is reconciled there, not here.
			b.cancelled.Add(1)
			return nil, ctx.Err()
		}
	case <-ctx.Done():
		b.queued.Add(-n)
		b.cancelled.Add(1)
		return nil, ctx.Err()
	case <-b.quit:
		b.queued.Add(-n)
		pstart := time.Now()
		v := b.model.PredictBatch(ss)
		tr.AddSpan("queue_wait", "", start, pstart.Sub(start))
		tr.AddSpan("predict", "direct", pstart, time.Since(pstart))
		b.latency.Observe(time.Since(start).Seconds())
		return v, nil
	}
}

// Close stops the collector and waits for the batch in flight to finish.
// Requests that already reached the collector still receive their
// results; later calls degrade to direct evaluation. Idempotent.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() { close(b.quit) })
	<-b.done
}

// collect is the batching loop: block for a request, add whatever is
// already queued behind it while the batch has room, then evaluate before
// taking more. A queued request that would overflow the batch is carried
// into the next one.
func (b *Batcher) collect() {
	defer close(b.done)
	var carry *batchRequest
	for {
		var batch []batchRequest
		if carry != nil {
			batch, carry = append(batch, *carry), nil
		} else {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			case <-b.quit:
				return
			}
		}
		n := len(batch[0].ss)
	drain:
		for n < b.maxBatch {
			select {
			case r := <-b.reqs:
				if n+len(r.ss) > b.maxBatch {
					carry = &r
					break drain
				}
				batch = append(batch, r)
				n += len(r.ss)
			default:
				break drain
			}
		}
		b.flush(batch)
	}
}

// flush evaluates one batch and fans results back to the waiters.
func (b *Batcher) flush(batch []batchRequest) {
	// Drop requests whose caller already gave up: cancellation aborts work
	// sitting in the queue, not just the wait for it. No send on their out
	// channels — the waiters are gone, and the buffer makes the skip safe
	// even if one is mid-race on its ctx.Done select.
	live := batch[:0]
	var samples []*gnn.Sample
	for _, r := range batch {
		b.queued.Add(-int64(len(r.ss)))
		if r.ctx.Err() != nil {
			continue
		}
		live = append(live, r)
		samples = append(samples, r.ss...)
	}
	batch = live
	if len(samples) == 0 {
		return
	}
	pstart := time.Now()
	preds := b.model.PredictBatch(samples)
	pdur := time.Since(pstart)
	// Count before delivering: a caller's Predict returns the moment its
	// result lands, and Stats() observed right after must include it.
	b.sizes.Observe(float64(len(samples)))
	unit := max(int64(pdur)/int64(len(samples)), 1)
	if old := b.unitNS.Load(); old > 0 {
		unit = old + (unit-old)/8
	}
	b.unitNS.Store(unit)
	b.mu.Lock()
	b.batches++
	b.samples += uint64(len(samples))
	if len(samples) > b.maxSeen {
		b.maxSeen = len(samples)
	}
	if len(batch) > 1 {
		b.sumBatched += uint64(len(samples))
	}
	b.mu.Unlock()
	// Spans land on each traced request before its result is delivered, so
	// the caller's trace is complete by the time its handler finishes.
	var detail string
	off := 0
	for _, r := range batch {
		if r.tr != nil {
			if detail == "" {
				detail = fmt.Sprintf("batch=%d", len(samples))
			}
			r.tr.AddSpan("queue_wait", "", r.enq, pstart.Sub(r.enq))
			r.tr.AddSpan("predict", detail, pstart, pdur)
		}
		r.out <- preds[off : off+len(r.ss) : off+len(r.ss)]
		off += len(r.ss)
	}
}

// LatencyStats is the quantile snapshot exposed through /v1/stats: total
// observation count plus p50/p99 in milliseconds, estimated from the same
// log-bucketed histogram /metrics exposes as
// serve_batcher_latency_seconds — one instrument, two renderings.
type LatencyStats struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// BatcherStats snapshots the batching counters and the per-prediction
// latency quantiles (the model's observable serving latency).
type BatcherStats struct {
	Batches        uint64       `json:"batches"`
	Samples        uint64       `json:"samples"`
	MaxBatch       int          `json:"max_batch"`
	MeanBatch      float64      `json:"mean_batch"`
	CoalescedShare float64      `json:"coalesced_share"`     // fraction of samples that shared a batch
	Cancelled      uint64       `json:"cancelled,omitempty"` // predictions abandoned by their context
	Latency        LatencyStats `json:"latency"`
}

// Stats returns a snapshot of the batcher counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	st := BatcherStats{Batches: b.batches, Samples: b.samples, MaxBatch: b.maxSeen, Cancelled: b.cancelled.Load()}
	if b.batches > 0 {
		st.MeanBatch = float64(b.samples) / float64(b.batches)
	}
	if b.samples > 0 {
		st.CoalescedShare = float64(b.sumBatched) / float64(b.samples)
	}
	b.mu.Unlock()
	st.Latency = LatencyStats{
		Count: b.latency.Count(),
		P50MS: b.latency.Quantile(0.50) * 1000,
		P99MS: b.latency.Quantile(0.99) * 1000,
	}
	return st
}
