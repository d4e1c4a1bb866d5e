package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"paragraph/internal/gnn"
)

// echoModel predicts each sample's first feature, optionally sleeping to
// keep an evaluation in flight while others queue.
type echoModel struct {
	delay time.Duration
	mu    sync.Mutex
	calls int
}

func (m *echoModel) PredictBatch(ss []*gnn.Sample) []float64 {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Feats[0]
	}
	return out
}

func (m *echoModel) callCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

func TestBatcherPredictRoundTrips(t *testing.T) {
	model := &echoModel{}
	b := NewBatcher(model, 4)
	defer b.Close()
	for i := 0; i < 5; i++ {
		want := float64(i) / 10
		if got := b.Predict(&gnn.Sample{Feats: [2]float64{want, 0}}); got != want {
			t.Errorf("Predict = %v, want %v", got, want)
		}
	}
	st := b.Stats()
	if st.Samples != 5 {
		t.Errorf("samples = %d, want 5", st.Samples)
	}
}

func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	// Requests that queue while an evaluation is blocked must share the
	// next PredictBatch call: one forward pass for all of them.
	model := &blockingModel{release: make(chan struct{})}
	b := NewBatcher(model, 8)
	defer b.Close()

	const n = 8
	var wg sync.WaitGroup
	results := make([]float64, n+1)
	predict := func(i int) {
		defer wg.Done()
		results[i] = b.Predict(&gnn.Sample{Feats: [2]float64{float64(i), 0}})
	}
	wg.Add(1)
	go predict(0)
	waitCalls(t, model, 1) // request 0 is parked inside the model
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go predict(i)
	}
	waitQueued(t, b, n)
	close(model.release)
	wg.Wait()

	for i, got := range results {
		if got != float64(i) {
			t.Errorf("request %d: got %v", i, got)
		}
	}
	if sizes := model.batchSizes(); len(sizes) != 2 || sizes[0] != 1 || sizes[1] != n {
		t.Errorf("PredictBatch sizes = %v, want [1 %d]: requests queued during an evaluation must share the next one", sizes, n)
	}
	st := b.Stats()
	if st.Samples != n+1 || st.Batches != 2 || st.MaxBatch != n {
		t.Errorf("stats = %+v, want %d samples in 2 batches, max %d", st, n+1, n)
	}
	if want := float64(n) / float64(n+1); st.CoalescedShare != want {
		t.Errorf("coalesced share = %v, want %v", st.CoalescedShare, want)
	}
}

func TestBatcherNeverSplitsARequest(t *testing.T) {
	// A request is one unit: one larger than MaxBatch is evaluated whole,
	// and a queued request that would overflow the batch waits for the
	// next one rather than being split across two.
	model := &blockingModel{release: make(chan struct{})}
	b := NewBatcher(model, 4)
	defer b.Close()

	samples := func(base, n int) []*gnn.Sample {
		ss := make([]*gnn.Sample, n)
		for i := range ss {
			ss[i] = &gnn.Sample{Feats: [2]float64{float64(base + i), 0}}
		}
		return ss
	}
	var wg sync.WaitGroup
	submit := func(base, n int) {
		defer wg.Done()
		got, err := b.PredictBatchCtx(context.Background(), samples(base, n))
		if err != nil {
			t.Errorf("request at %d: %v", base, err)
			return
		}
		for i, v := range got {
			if v != float64(base+i) {
				t.Errorf("request at %d, sample %d: got %v", base, i, v)
			}
		}
	}
	wg.Add(1)
	go submit(0, 6) // larger than MaxBatch: evaluated alone, unsplit
	waitCalls(t, model, 1)
	wg.Add(2)
	go submit(100, 3)
	go submit(200, 3) // 3+3 > 4: the second waits for the next batch
	waitQueued(t, b, 6)
	close(model.release)
	wg.Wait()
	if sizes := model.batchSizes(); len(sizes) != 3 || sizes[0] != 6 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("PredictBatch sizes = %v, want [6 3 3]", sizes)
	}
}

func TestBatcherRespectsMaxBatch(t *testing.T) {
	model := &echoModel{delay: time.Millisecond}
	const maxBatch = 4
	b := NewBatcher(model, maxBatch)
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Predict(&gnn.Sample{Feats: [2]float64{float64(i), 0}})
		}(i)
	}
	wg.Wait()
	if st := b.Stats(); st.MaxBatch > maxBatch {
		t.Errorf("batch of %d exceeds cap %d", st.MaxBatch, maxBatch)
	}
}

func TestBatcherCloseDrains(t *testing.T) {
	model := &echoModel{delay: time.Millisecond}
	b := NewBatcher(model, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Predict(&gnn.Sample{Feats: [2]float64{float64(i), 0}})
		}(i)
	}
	wg.Wait() // all results delivered
	b.Close() // must not hang
	b.Close() // idempotent
	if st := b.Stats(); st.Samples != 8 {
		t.Errorf("samples = %d, want 8", st.Samples)
	}
}

func TestBatcherPredictAfterCloseDegradesGracefully(t *testing.T) {
	// A handler racing shutdown must still get a correct answer — directly
	// evaluated, not a panic or a hang.
	model := &echoModel{}
	b := NewBatcher(model, 4)
	b.Close()
	if got := b.Predict(&gnn.Sample{Feats: [2]float64{0.75, 0}}); got != 0.75 {
		t.Errorf("post-Close Predict = %v, want 0.75", got)
	}
	if st := b.Stats(); st.Samples != 0 {
		t.Errorf("direct evaluation counted as batched: %+v", st)
	}
}

func TestBatcherLatencyQuantiles(t *testing.T) {
	model := &echoModel{delay: time.Millisecond}
	b := NewBatcher(model, 4)
	defer b.Close()
	for i := 0; i < 20; i++ {
		b.Predict(&gnn.Sample{Feats: [2]float64{0.5, 0}})
	}
	lat := b.Stats().Latency
	if lat.Count != 20 {
		t.Errorf("latency count = %d, want 20", lat.Count)
	}
	// The model sleeps 1ms per batch, so every observed latency is >= 1ms
	// and the quantiles must reflect that (and be ordered).
	if lat.P50MS < 0.5 {
		t.Errorf("p50 = %vms, implausibly below the model's 1ms floor", lat.P50MS)
	}
	if lat.P99MS < lat.P50MS {
		t.Errorf("p99 %v < p50 %v", lat.P99MS, lat.P50MS)
	}
}

func TestBatcherEmptyLatencyStats(t *testing.T) {
	b := NewBatcher(&echoModel{}, 4)
	defer b.Close()
	if lat := b.Stats().Latency; lat.Count != 0 || lat.P50MS != 0 || lat.P99MS != 0 {
		t.Errorf("latency stats before any prediction = %+v", lat)
	}
}

// blockingModel parks every PredictBatch call until released, recording
// the size of each batch it was actually asked to evaluate, and predicts
// each sample's first feature.
type blockingModel struct {
	release chan struct{}
	mu      sync.Mutex
	sizes   []int
}

func (m *blockingModel) PredictBatch(ss []*gnn.Sample) []float64 {
	m.mu.Lock()
	m.sizes = append(m.sizes, len(ss))
	m.mu.Unlock()
	<-m.release
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Feats[0]
	}
	return out
}

func (m *blockingModel) batchSizes() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.sizes...)
}

func (m *blockingModel) seenSamples() int {
	n := 0
	for _, k := range m.batchSizes() {
		n += k
	}
	return n
}

// waitCalls waits until the model has been entered n times.
func waitCalls(t *testing.T, m *blockingModel, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.batchSizes()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("model entered %d times, want %d", len(m.batchSizes()), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitQueued waits until n samples are queued behind the collector, then
// gives their senders a moment to block on the hand-off.
func waitQueued(t *testing.T, b *Batcher, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.queued.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", b.queued.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond)
}

func TestBatcherPredictCtxAlreadyCancelled(t *testing.T) {
	// Regression: Predict used to block until its batch evaluated even when
	// the caller's context was already dead. Now it must return immediately,
	// without ever touching the model.
	model := &echoModel{}
	b := NewBatcher(model, 4)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := b.PredictCtx(ctx, &gnn.Sample{Feats: [2]float64{1, 0}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("PredictCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PredictCtx blocked on a cancelled context")
	}
	if model.callCount() != 0 {
		t.Error("cancelled request reached the model")
	}
	if c := b.Stats().Cancelled; c != 1 {
		t.Errorf("cancelled counter = %d, want 1", c)
	}
}

func TestBatcherCancelDuringQueueWaitAbortsWork(t *testing.T) {
	// A request queued behind a blocked evaluation whose caller gives up
	// must (a) unblock the caller immediately and (b) never reach the
	// model — cancellation aborts queued work, not just the wait for it.
	model := &blockingModel{release: make(chan struct{})}
	b := NewBatcher(model, 4)
	defer b.Close()

	// Park one live request inside the model.
	parked := make(chan float64, 1)
	go func() { parked <- b.Predict(&gnn.Sample{Feats: [2]float64{1, 0}}) }()
	waitCalls(t, model, 1)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.PredictCtx(ctx, &gnn.Sample{Feats: [2]float64{2, 0}})
		errc <- err
	}()
	waitQueued(t, b, 1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("PredictCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PredictCtx still blocked after cancel: ctx not honored during queue wait")
	}
	// A live request queued after the cancellation rides the next batch;
	// the cancelled one must not be in it.
	live := make(chan float64, 1)
	go func() {
		v, err := b.PredictCtx(context.Background(), &gnn.Sample{Feats: [2]float64{3, 0}})
		if err != nil {
			t.Errorf("live request failed: %v", err)
		}
		live <- v
	}()
	waitQueued(t, b, 1)
	close(model.release) // let evaluations proceed from here on
	for _, c := range []chan float64{parked, live} {
		select {
		case <-c:
		case <-time.After(10 * time.Second):
			t.Fatal("live request starved after a cancellation in the queue")
		}
	}
	if n := model.seenSamples(); n != 2 {
		t.Errorf("model evaluated %d samples, want only the 2 live ones", n)
	}
	if c := b.Stats().Cancelled; c != 1 {
		t.Errorf("cancelled counter = %d, want 1", c)
	}
}

func TestBatcherCancelLeaksNoGoroutines(t *testing.T) {
	// After a storm of cancelled predictions drains, no collector-side or
	// caller-side goroutines may linger (run under -race in CI).
	model := &echoModel{delay: time.Millisecond}
	b := NewBatcher(model, 4)

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
			defer cancel()
			_, _ = b.PredictCtx(ctx, &gnn.Sample{Feats: [2]float64{float64(i), 0}})
		}(i)
	}
	wg.Wait()
	b.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: %d before, %d after cancellation storm\n%s",
			before, now, buf[:runtime.Stack(buf, true)])
	}
	if b.queued.Load() != 0 {
		t.Errorf("queued gauge = %d after drain, want 0", b.queued.Load())
	}
}
