package saebft

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/replycert"
	"repro/internal/wire"
)

// Client batching defaults, applied when WithClientBatching receives zero
// values.
const (
	defaultBatchMaxOps   = 16
	defaultBatchMaxBytes = 1 << 20
	defaultBatchFlush    = 200 * time.Microsecond
)

// clientBatching is the validated batching configuration carried by options.
type clientBatching struct {
	enabled  bool
	maxOps   int
	maxBytes int
	flush    time.Duration
	adaptive bool
	adaptSet bool
}

func (c *clientBatching) fillDefaults() {
	if c.maxOps <= 0 {
		c.maxOps = defaultBatchMaxOps
	}
	if c.maxBytes <= 0 {
		c.maxBytes = defaultBatchMaxBytes
	}
	if c.flush <= 0 {
		c.flush = defaultBatchFlush
	}
	if !c.adaptSet {
		c.adaptive = true
	}
}

// pendingOp is one operation waiting in the coalescing queue.
type pendingOp struct {
	ctx     context.Context
	op      []byte
	ch      chan Result
	settled atomic.Bool
}

// deliver resolves the op exactly once; later deliveries are dropped. A
// context-cancellation watcher and the batch completion path can race to
// settle the same op, and the result channel holds only one Result.
func (p *pendingOp) deliver(res Result) {
	if !p.settled.Swap(true) {
		p.ch <- res
	}
}

// batcher coalesces concurrent Invoke/InvokeAsync operations into multi-op
// requests. One dispatcher goroutine cuts batches from a FIFO queue —
// waiting up to the flush interval for a fuller batch, capped at maxOps
// operations or maxBytes of bodies — and hands each batch to a dispatch
// goroutine that runs it through one leased logical client. The width
// controller bounds how many dispatches are in flight at once, so under
// light load ops go out almost immediately while under heavy load the
// queue drains in large amortized envelopes.
type batcher struct {
	h        *Client
	maxOps   int
	maxBytes int
	flush    time.Duration
	ctrl     *widthController

	mu     sync.Mutex
	queue  []*pendingOp
	closed bool
	wake   chan struct{} // capacity 1: dispatcher nudge
	done   chan struct{} // dispatcher exited
}

func newBatcher(h *Client, cfg clientBatching) *batcher {
	cfg.fillDefaults()
	b := &batcher{
		h:        h,
		maxOps:   cfg.maxOps,
		maxBytes: cfg.maxBytes,
		flush:    cfg.flush,
		ctrl:     newWidthController(h.width, cfg.adaptive),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// enqueue adds one operation to the coalescing queue and returns its result
// channel (buffered; receives exactly one Result).
func (b *batcher) enqueue(ctx context.Context, op []byte) <-chan Result {
	ch := make(chan Result, 1)
	if err := ctx.Err(); err != nil {
		ch <- Result{Err: err}
		return ch
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ch <- Result{Err: ErrClosed}
		return ch
	}
	b.queue = append(b.queue, &pendingOp{ctx: ctx, op: op, ch: ch})
	b.mu.Unlock()
	b.nudge()
	return ch
}

func (b *batcher) nudge() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// stop terminally closes the batcher: queued operations are drained and
// failed with ErrClosed, and the dispatcher exits. Operations already
// dispatched resolve through the runtime's own shutdown path. Idempotent.
func (b *batcher) stop() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	drained := b.queue
	b.queue = nil
	b.mu.Unlock()
	b.ctrl.close()
	b.nudge()
	for _, p := range drained {
		p.deliver(Result{Err: ErrClosed})
	}
	<-b.done
}

// run is the dispatcher loop.
func (b *batcher) run() {
	defer close(b.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		// Park until there is at least one queued op (or shutdown).
		b.mu.Lock()
		for len(b.queue) == 0 && !b.closed {
			b.mu.Unlock()
			<-b.wake
			b.mu.Lock()
		}
		if b.closed {
			b.failLocked(ErrClosed)
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()

		// Give the batch the flush interval to fill, unless it is already
		// at capacity.
		timer.Reset(b.flush)
		for {
			b.mu.Lock()
			full := len(b.queue) >= b.maxOps || b.queueBytesLocked() >= b.maxBytes
			closed := b.closed
			b.mu.Unlock()
			if full || closed {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				break
			}
			expired := false
			select {
			case <-timer.C:
				expired = true
			case <-b.wake:
			}
			if expired {
				break
			}
		}

		// Wait for a dispatch slot. While all slots are busy further ops
		// keep coalescing into the queue — this is where batches grow
		// under load.
		if err := b.ctrl.acquire(); err != nil {
			b.mu.Lock()
			b.failLocked(err)
			b.mu.Unlock()
			return
		}
		batch := b.cut()
		if len(batch) == 0 {
			b.ctrl.release()
			continue
		}
		go b.dispatch(batch)
	}
}

// queueBytesLocked sums the queued op bodies. Queues are short (maxOps is
// tens, not thousands), so a linear walk beats bookkeeping.
func (b *batcher) queueBytesLocked() int {
	n := 0
	for _, p := range b.queue {
		n += len(p.op)
	}
	return n
}

// failLocked fails every queued op; the caller holds b.mu.
func (b *batcher) failLocked(err error) {
	for _, p := range b.queue {
		p.deliver(Result{Err: err})
	}
	b.queue = nil
}

// cut pops the next batch off the queue: up to maxOps operations or
// maxBytes of bodies, whichever comes first. A single operation larger
// than maxBytes still ships (alone — it passes through effectively
// unbatched). Operations whose context is already canceled are resolved
// here instead of wasting a slot in the envelope.
func (b *batcher) cut() []*pendingOp {
	b.mu.Lock()
	defer b.mu.Unlock()
	batch := make([]*pendingOp, 0, b.maxOps)
	bytes := 0
	i := 0
	for ; i < len(b.queue) && len(batch) < b.maxOps; i++ {
		p := b.queue[i]
		if err := p.ctx.Err(); err != nil {
			p.deliver(Result{Err: err})
			continue
		}
		if len(batch) > 0 && bytes+len(p.op) > b.maxBytes {
			break
		}
		bytes += len(p.op)
		batch = append(batch, p)
	}
	b.queue = append(b.queue[:0], b.queue[i:]...)
	if len(b.queue) > 0 {
		b.nudge()
	}
	return batch
}

// dispatch runs one batch through a leased logical client and demultiplexes
// the certified reply envelope back to the callers. Each op's context keeps
// its contract: cancellation settles that op with ctx.Err() immediately
// (the operation may still execute as part of the batch, mirroring the
// unbatched abandon path); the handle's timeout bounds the request.
func (b *batcher) dispatch(batch []*pendingOp) {
	fail := func(err error) {
		for _, p := range batch {
			p.deliver(Result{Err: err})
		}
	}
	h := b.h
	rt, err := h.runtime()
	if err != nil {
		b.ctrl.release()
		fail(err)
		return
	}
	idx, err := h.lease(context.Background())
	if err != nil {
		b.ctrl.release()
		fail(err)
		return
	}
	h.admitN(len(batch))

	// A lone op goes out raw — byte-identical to an unbatched client —
	// unless its body would be mistaken for an envelope, in which case it
	// is escaped into a one-op envelope.
	wrapped := len(batch) > 1 || wire.IsMultiOp(batch[0].op)
	payload := batch[0].op
	if wrapped {
		ops := make([][]byte, len(batch))
		for i, p := range batch {
			ops[i] = p.op
		}
		payload = wire.PackOps(ops)
	}

	// Per-op cancellation watchers settle their op without waiting for the
	// batch; the once-guard in deliver drops the batch's late result.
	batchDone := make(chan struct{})
	for _, p := range batch {
		if p.ctx.Done() == nil {
			continue
		}
		go func(p *pendingOp) {
			select {
			case <-p.ctx.Done():
				p.deliver(Result{Err: p.ctx.Err()})
			case <-batchDone:
			}
		}(p)
	}

	start := time.Now()
	res, err := rt.invoke(context.Background(), idx, payload, h.timeout)
	lat := time.Since(start)
	close(batchDone)

	h.releaseN(idx, len(batch))
	if err != nil {
		b.ctrl.release()
		fail(err)
		return
	}
	b.ctrl.releaseObserved(lat)
	h.batches.Add(1)
	h.batchedOps.Add(uint64(len(batch)))
	h.noteWrite(Result{Seq: res.seq})

	// Every operation in the batch certified at the batch's sequence
	// number; the per-op Results carry it so sessions can adopt it.
	if !wrapped {
		batch[0].deliver(Result{Reply: res.body, Seq: res.seq})
		return
	}
	bodies, err := replycert.SplitOpReplies(res.body, len(batch))
	if err != nil {
		fail(err)
		return
	}
	for i, p := range batch {
		p.deliver(Result{Reply: bodies[i], Seq: res.seq})
	}
}

// widthController adaptively bounds how many batch dispatches may be in
// flight concurrently, between 1 and the handle's pipeline width. It is an
// AIMD controller keyed on completion latency: the fastest completion seen
// so far approximates the uncontended round trip, and the smoothed recent
// latency is compared against it — rising latency means batches are
// queuing behind the cluster (narrow the window and let the coalescing
// queue amortize harder), flat latency means there is headroom (widen and
// pipeline more slots). With adaptation off it is a plain semaphore at
// full width.
type widthController struct {
	mu       sync.Mutex
	cond     *sync.Cond
	adaptive bool
	max      int
	target   int
	inUse    int
	closed   bool

	minLat time.Duration // fastest completion observed (baseline RTT)
	smooth time.Duration // EWMA of completion latency
}

func newWidthController(max int, adaptive bool) *widthController {
	if max < 1 {
		max = 1
	}
	w := &widthController{adaptive: adaptive, max: max, target: max}
	if adaptive && max > 2 {
		// Start narrow and earn width: the first completions establish the
		// baseline RTT before the window opens up.
		w.target = 2
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire blocks until a dispatch slot is free, or the controller closes.
func (w *widthController) acquire() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inUse >= w.target && !w.closed {
		w.cond.Wait()
	}
	if w.closed {
		return ErrClosed
	}
	w.inUse++
	return nil
}

// release returns a slot without a latency observation (failed dispatch).
func (w *widthController) release() {
	w.mu.Lock()
	w.inUse--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// releaseObserved returns a slot and feeds the completion latency to the
// adaptation loop.
func (w *widthController) releaseObserved(lat time.Duration) {
	w.mu.Lock()
	w.inUse--
	if w.adaptive && lat > 0 {
		if w.minLat == 0 || lat < w.minLat {
			w.minLat = lat
		}
		if w.smooth == 0 {
			w.smooth = lat
		} else {
			w.smooth = (3*w.smooth + lat) / 4
		}
		switch {
		case w.smooth > 2*w.minLat && w.target > 1:
			w.target--
		case w.smooth < w.minLat*3/2 && w.target < w.max:
			w.target++
		}
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// width reports the current dispatch window.
func (w *widthController) width() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.target
}

// close unblocks all acquirers with ErrClosed. Idempotent.
func (w *widthController) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}
