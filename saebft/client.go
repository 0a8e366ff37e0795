package saebft

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/replycert"
	"repro/internal/wire"
)

// Client is a pipelined, context-aware handle onto a replicated service.
//
// The paper's client model keeps exactly one request outstanding (§2). A
// handle multiplexes many such logical clients behind one surface: each
// Invoke/InvokeAsync leases a free logical client, runs the operation
// through it, and returns it to the pool — so up to ClientStats().Pipeline
// invocations proceed concurrently and further calls queue for the next free
// slot.
//
// A cluster's handle with client-side batching enabled (WithClientBatching)
// instead coalesces operations into multi-op requests: concurrent
// Invoke/InvokeAsync calls share logical clients, one agreement slot
// amortizes over a whole envelope of operations, and an adaptive
// controller widens or narrows the number of concurrently dispatched
// batches based on observed completion latency. Dialed handles do not
// batch.
//
// A handle is safe for concurrent use by any number of goroutines.
type Client struct {
	cluster *Cluster       // non-nil when owned by an in-process Cluster
	rt      clusterRuntime // non-nil when dialed against a deployment

	free    chan int
	width   int
	timeout time.Duration
	quit    chan struct{} // closed on terminal shutdown
	bat     *batcher      // non-nil when client-side batching is enabled
	session *Session      // the handle's implicit session
	reg     *obs.Registry // backing registry for Metrics (may be nil)

	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	batches     atomic.Uint64
	batchedOps  atomic.Uint64

	reads          atomic.Uint64
	readsCertified atomic.Uint64
	readRetries    atomic.Uint64
	readFallbacks  atomic.Uint64

	closeOnce sync.Once
	closed    atomic.Bool
}

func newHandle(width int, timeout time.Duration) *Client {
	h := &Client{
		free:    make(chan int, width),
		width:   width,
		timeout: timeout,
		quit:    make(chan struct{}),
	}
	h.session = &Session{h: h}
	for i := 0; i < width; i++ {
		h.free <- i
	}
	return h
}

func newClusterClient(c *Cluster, width int, timeout time.Duration) *Client {
	h := newHandle(width, timeout)
	h.cluster = c
	h.reg = c.o.obsReg
	return h
}

// newDialedClient builds a handle over an external deployment.
func newDialedClient(rt clusterRuntime, width int, timeout time.Duration) *Client {
	h := newHandle(width, timeout)
	h.rt = rt
	return h
}

// runtime resolves the live backend for this handle.
func (h *Client) runtime() (clusterRuntime, error) {
	if h.cluster != nil {
		return h.cluster.runtime()
	}
	if h.closed.Load() {
		return nil, ErrClosed
	}
	return h.rt, nil
}

// Stats snapshots aggregate counters from the handle's backend: for a
// cluster handle the whole cluster (same as Cluster.Stats), for a dialed
// handle this process's client endpoints — including their TCP link
// counters, which is what an operator debugging a WAN deployment wants.
func (h *Client) Stats() (Stats, error) {
	rt, err := h.runtime()
	if err != nil {
		return Stats{}, err
	}
	return rt.stats()
}

// ClientStats snapshots the handle's local counters: pipelining, batching,
// and the certified read path. It complements Stats, which aggregates
// cluster-side protocol counters; both are filled from the same underlying
// counters on every call, so the two surfaces cannot drift.
type ClientStats struct {
	// Pipeline is how many invocations the handle can keep in flight
	// concurrently (the number of logical clients backing it).
	Pipeline int
	// PipelineWidth is how many batch dispatches the adaptive controller
	// currently allows in flight; equals Pipeline without batching.
	PipelineWidth int
	// InFlight is how many invocations are currently admitted.
	InFlight int
	// MaxInFlight is the lifetime high-water mark of InFlight.
	MaxInFlight int
	// Batches counts (multi-op or pass-through) requests the batching path
	// completed; BatchedOps/Batches is the achieved amortization factor.
	Batches    uint64
	BatchedOps uint64

	// Reads counts certified-read calls admitted (ReadCertified on the
	// handle or any of its sessions).
	Reads uint64
	// ReadsCertified counts reads answered entirely on the fast path.
	ReadsCertified uint64
	// ReadRetries counts re-probes at a raised floor after a quorum
	// mismatch.
	ReadRetries uint64
	// ReadFallbacks counts reads that went through full agreement instead
	// (mismatch persisted, executors refused, timeout, or no read path).
	ReadFallbacks uint64
	// Watermark is the handle's implicit-session floor: the highest
	// sequence number any Invoke through this handle certified at.
	Watermark uint64
}

// ClientStats snapshots the handle's local counters.
func (h *Client) ClientStats() ClientStats {
	return ClientStats{
		Pipeline:       h.width,
		PipelineWidth:  h.pipelineWidth(),
		InFlight:       int(h.inFlight.Load()),
		MaxInFlight:    int(h.maxInFlight.Load()),
		Batches:        h.batches.Load(),
		BatchedOps:     h.batchedOps.Load(),
		Reads:          h.reads.Load(),
		ReadsCertified: h.readsCertified.Load(),
		ReadRetries:    h.readRetries.Load(),
		ReadFallbacks:  h.readFallbacks.Load(),
		Watermark:      h.session.Watermark(),
	}
}

func (h *Client) pipelineWidth() int {
	if h.bat == nil {
		return h.width
	}
	return h.bat.ctrl.width()
}

func (h *Client) lease(ctx context.Context) (int, error) {
	select {
	case idx := <-h.free:
		return idx, nil
	default:
	}
	select {
	case idx := <-h.free:
		return idx, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-h.quit:
		return 0, ErrClosed
	}
}

func (h *Client) admit() { h.admitN(1) }

func (h *Client) admitN(k int) {
	n := h.inFlight.Add(int64(k))
	for {
		max := h.maxInFlight.Load()
		if n <= max || h.maxInFlight.CompareAndSwap(max, n) {
			return
		}
	}
}

func (h *Client) release(idx int) { h.releaseN(idx, 1) }

func (h *Client) releaseN(idx, k int) {
	h.inFlight.Add(int64(-k))
	h.free <- idx
}

// Invoke submits one operation and blocks until its certified reply, an
// error, context cancellation, or the handle's timeout. The reply is
// vouched for by the deployment's reply-certificate scheme (g+1 matching
// replies or a valid threshold signature) before it is returned. The
// handle's timeout ends the call with an error wrapping ErrTimeout; the
// context ending it — a deadline included — returns ctx.Err(). The two
// are independent: on the simulated transport the timeout runs on the
// virtual clock and the context deadline on the wall clock.
func (h *Client) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	res := h.invokeFull(ctx, op)
	return res.Reply, res.Err
}

// invokeFull is Invoke returning the whole Result (body plus certified
// sequence number); every successful completion advances the handle's
// implicit session watermark.
func (h *Client) invokeFull(ctx context.Context, op []byte) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if h.bat != nil {
		select {
		case res := <-h.bat.enqueue(ctx, op):
			h.noteWrite(res)
			return res
		case <-ctx.Done():
			// The batch resolves on its own; the buffered result channel
			// absorbs the late delivery.
			return Result{Err: ctx.Err()}
		}
	}
	rt, err := h.runtime()
	if err != nil {
		return Result{Err: err}
	}
	idx, err := h.lease(ctx)
	if err != nil {
		return Result{Err: err}
	}
	h.admit()
	defer h.release(idx)
	body, seq, err := h.invokeSingle(ctx, rt, idx, op)
	res := Result{Reply: body, Seq: seq, Err: err}
	h.noteWrite(res)
	return res
}

// noteWrite advances the implicit session past a completed invocation, so a
// subsequent ReadCertified on the handle observes the write.
func (h *Client) noteWrite(res Result) {
	if res.Err == nil {
		h.session.AdvanceTo(res.Seq)
	}
}

// invokeSingle runs one unbatched operation, escaping bodies that would be
// mistaken for multi-op envelopes by the execution cluster. It returns the
// reply body plus the sequence number it certified at.
func (h *Client) invokeSingle(ctx context.Context, rt clusterRuntime, idx int, op []byte) ([]byte, uint64, error) {
	wrapped := wire.IsMultiOp(op)
	if wrapped {
		op = wire.PackOps([][]byte{op})
	}
	res, err := rt.invoke(ctx, idx, op, h.timeout)
	if err != nil || !wrapped {
		return res.body, res.seq, err
	}
	bodies, err := replycert.SplitOpReplies(res.body, 1)
	if err != nil {
		return nil, 0, err
	}
	return bodies[0], res.seq, nil
}

// ReadCertified serves one read-only operation through the certified fast
// read path: the execution replicas answer directly from applied state — no
// agreement round — and the reply is accepted once g+1 of them sign
// byte-identical answers computed at or above the handle's watermark, so
// every Invoke previously completed through this handle is observed
// (read-your-writes). When the fast path cannot certify — the replicas'
// answers diverge beyond the retry budget, the operation is not read-only,
// the application cannot answer queries, or the deployment has no read path
// (ModeBase, ModeFirewall) — the operation transparently falls back to full
// agreement, so ReadCertified is safe for any operation and never weaker
// than Invoke. A probe that outlasts its read timeout falls back too; the
// context ending the call, a deadline included, returns ctx.Err().
func (h *Client) ReadCertified(ctx context.Context, op []byte) ([]byte, error) {
	return h.session.ReadCertified(ctx, op)
}

// Session derives an independent read-your-writes session seeded at the
// handle's current watermark. Writes and certified reads issued through the
// session order only against each other (and against writes the handle
// completed before the session began), so concurrent sessions do not
// needlessly raise each other's read floors.
func (h *Client) Session() *Session {
	s := &Session{h: h}
	s.AdvanceTo(h.session.Watermark())
	return s
}

// InvokeAsync submits one operation without blocking and returns a channel
// that receives exactly one Result. Up to ClientStats().Pipeline
// invocations run concurrently; beyond that, calls wait (off the caller's
// goroutine) for a free slot. A canceled context resolves the invocation
// with ctx.Err() — promptly on the batching path (the operation may still
// execute as part of its batch), or once its logical client has quiesced on
// the unbatched path. Closing the owning cluster (or the dialed handle)
// drains queued invocations with ErrClosed.
func (h *Client) InvokeAsync(ctx context.Context, op []byte) <-chan Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if h.bat != nil {
		return h.bat.enqueue(ctx, op)
	}
	ch := make(chan Result, 1)
	rt, err := h.runtime()
	if err != nil {
		ch <- Result{Err: err}
		return ch
	}
	// Lease synchronously when a slot is free: the invocation is then
	// admitted (visible in ClientStats().InFlight) before InvokeAsync
	// returns.
	select {
	case idx := <-h.free:
		h.admit()
		go h.finish(ctx, rt, idx, op, ch)
	default:
		go func() {
			idx, err := h.lease(ctx)
			if err != nil {
				ch <- Result{Err: err}
				return
			}
			h.admit()
			h.finish(ctx, rt, idx, op, ch)
		}()
	}
	return ch
}

func (h *Client) finish(ctx context.Context, rt clusterRuntime, idx int, op []byte, ch chan Result) {
	reply, seq, err := h.invokeSingle(ctx, rt, idx, op)
	h.release(idx)
	res := Result{Reply: reply, Seq: seq, Err: err}
	h.noteWrite(res)
	ch <- res
}

// shutdown terminally closes the handle: queued batched operations are
// drained and failed with ErrClosed, waiters for a free logical client are
// unblocked, and — on a dialed handle — the runtime's endpoints disconnect.
// Idempotent; invoked by Close on dialed handles and by Cluster.Close on
// owned ones.
func (h *Client) shutdown() {
	h.closeOnce.Do(func() {
		h.closed.Store(true)
		close(h.quit)
		if h.bat != nil {
			h.bat.stop()
		}
		if h.rt != nil {
			h.rt.close()
		}
	})
}

// Close releases a handle obtained from Dial, disconnecting its endpoints
// and failing any still-queued operations with ErrClosed. On a handle
// owned by a Cluster it is a no-op — close the Cluster instead.
func (h *Client) Close() error {
	if h.cluster != nil {
		return nil
	}
	h.shutdown()
	return nil
}
