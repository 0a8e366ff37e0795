package saebft

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/execnode"
	"repro/internal/firewall"
	"repro/internal/transport"
	"repro/internal/types"
)

// Transport selects how a cluster's nodes communicate. The two
// implementations — SimTransport and TCPTransport — are constructed here;
// the interface is sealed (its method is unexported) so the set of
// transports can evolve without breaking embedders.
type Transport interface {
	start(b *core.Builder, opts *options) (clusterRuntime, error)
}

// invokeResult is the runtime-level completion of one invocation: the
// certified reply body plus the agreement sequence number it certified at —
// the watermark a session adopts for read-your-writes reads.
type invokeResult struct {
	body []byte
	seq  uint64
}

// readAttempt is the runtime-level completion of one certified-read probe.
// Exactly one of two shapes: a certified answer (mismatch false; body,
// refused, and the certified watermark seq are valid) or a definite quorum
// mismatch (mismatch true; hint suggests the floor to retry at).
type readAttempt struct {
	body     []byte
	refused  bool
	seq      uint64
	mismatch bool
	hint     uint64
}

// readAttemptFrom maps a protocol-core read outcome onto the runtime shape.
func readAttemptFrom(out core.ReadOutcome) readAttempt {
	if out.Err != nil {
		return readAttempt{mismatch: true, hint: uint64(out.Hint)}
	}
	return readAttempt{
		body:    out.Result.Body,
		refused: out.Result.Refused,
		seq:     uint64(out.Result.Seq),
	}
}

// callKind indexes an endpoint's two call slots: a logical client holds one
// request and one certified read at a time.
type callKind int

const (
	callInvoke callKind = iota
	callRead
)

// outcome is how one call ended: a certified reply (invoke), a completed
// probe (read), or an error.
type outcome struct {
	res  invokeResult
	read readAttempt
	err  error
}

// call is one of an endpoint's call slots.
type call struct {
	done     chan outcome // the waiting caller's (capacity 1); nil when idle
	deadline types.Time
	timeout  time.Duration
}

// endpoint is one logical client on any transport: a core.Client wrapped
// as a transport.Node that completes calls through the client's callbacks
// and expires them on the node's own clock — virtual under SimNet,
// monotonic wall time under TCPNet — so a timeout means the same thing on
// both. The transport supplies do, which runs fn on the goroutine that
// owns the client and may return before fn has run. Everything but run
// executes on that goroutine.
type endpoint struct {
	cl     *core.Client
	do     func(fn func(now types.Time))
	quit   <-chan struct{} // closed when the runtime shuts down
	active *int            // calls in flight across the owning goroutine
	calls  [2]call
}

func newEndpoint(cl *core.Client, quit <-chan struct{}, active *int) *endpoint {
	ep := &endpoint{cl: cl, quit: quit, active: active}
	cl.SetOnResult(func(body []byte, seq types.SeqNum) {
		ep.finish(callInvoke, outcome{res: invokeResult{body: body, seq: uint64(seq)}})
	})
	cl.SetOnReadDone(func(out core.ReadOutcome) {
		ep.finish(callRead, outcome{read: readAttemptFrom(out)})
	})
	return ep
}

// Deliver implements transport.Node.
func (ep *endpoint) Deliver(from types.NodeID, data []byte, now types.Time) {
	ep.cl.Deliver(from, data, now)
}

// Tick implements transport.Node: calls past their deadline end with
// ErrTimeout, then the client retransmits what is still outstanding.
func (ep *endpoint) Tick(now types.Time) {
	for k := range ep.calls {
		if c := &ep.calls[k]; c.done != nil && now > c.deadline {
			ep.cancel(callKind(k), fmt.Errorf("%w after %v", ErrTimeout, c.timeout))
		}
	}
	ep.cl.Tick(now)
}

// cancel ends the call in slot k with err, stopping its retransmissions; a
// late reply to it is ignored.
func (ep *endpoint) cancel(k callKind, err error) {
	if k == callRead {
		ep.cl.CancelRead()
	} else {
		ep.cl.Cancel()
	}
	ep.finish(k, outcome{err: err})
}

// finish ends the call in slot k, if any, with out.
func (ep *endpoint) finish(k callKind, out outcome) {
	c := &ep.calls[k]
	if c.done == nil {
		return
	}
	c.done <- out
	c.done = nil
	*ep.active--
}

// run submits a call of kind k — submit runs on the owning goroutine, with
// a deadline of now+timeout on the node's clock — and waits until it ends:
// an outcome, ctx, or the runtime closing. Each call has its own result
// channel, so an outcome that races an abandonment can never reach a later
// call.
func (ep *endpoint) run(ctx context.Context, k callKind, timeout time.Duration, submit func(now types.Time) error) (outcome, error) {
	done := make(chan outcome, 1)
	ep.do(func(now types.Time) {
		c := &ep.calls[k]
		if c.done != nil {
			// Only a call cut short by shutdown is still in the slot.
			ep.cancel(k, ErrClosed)
		}
		if err := submit(now); err != nil {
			done <- outcome{err: err}
			return
		}
		c.done, c.deadline, c.timeout = done, now+types.Time(timeout), timeout
		*ep.active++
	})
	select {
	case out := <-done:
		return out, out.err
	case <-ctx.Done():
		// Abandon: stop the call unless it already ended. The do is
		// ordered before any later call's submit on this endpoint.
		ep.do(func(types.Time) {
			if ep.calls[k].done == done {
				ep.cancel(k, ctx.Err())
			}
		})
		return outcome{}, ctx.Err()
	case <-ep.quit:
		return outcome{}, ErrClosed
	}
}

// endpoints serves a runtime's logical clients, one endpoint per index.
type endpoints []*endpoint

func (eps endpoints) at(idx int) (*endpoint, error) {
	if idx < 0 || idx >= len(eps) {
		return nil, fmt.Errorf("saebft: logical client %d out of range", idx)
	}
	return eps[idx], nil
}

func (eps endpoints) invoke(ctx context.Context, idx int, op []byte, timeout time.Duration) (invokeResult, error) {
	ep, err := eps.at(idx)
	if err != nil {
		return invokeResult{}, err
	}
	out, err := ep.run(ctx, callInvoke, timeout, func(now types.Time) error { return ep.cl.Submit(op, now) })
	return out.res, err
}

func (eps endpoints) readCertified(ctx context.Context, idx int, op []byte, floor uint64, timeout time.Duration) (readAttempt, error) {
	ep, err := eps.at(idx)
	if err != nil {
		return readAttempt{}, err
	}
	out, err := ep.run(ctx, callRead, timeout, func(now types.Time) error {
		return ep.cl.SubmitRead(op, types.SeqNum(floor), now)
	})
	return out.read, err
}

// addNode folds the counters of one node this process runs — a logical
// client's endpoint or a replica — into s. Both runtimes' stats go through
// it.
func (s *Stats) addNode(node transport.Node) {
	switch n := node.(type) {
	case *endpoint:
		m := &n.cl.Metrics
		s.Requests += m.Requests
		s.Retransmits += m.Retransmits
		s.Replies += m.Replies
		s.BadReplies += m.BadReplies
		s.Reads += m.Reads
		s.ReadsCertified += m.ReadsCertified
		s.ReadMismatches += m.ReadMismatches
		s.BadReadReplies += m.BadReadReplies
	case *firewall.Filter:
		s.SharesRejected += n.Metrics.SharesRejected
	case *core.AgreementNode:
		s.SharesRejected += n.Queue.Metrics.SharesRejected
	case *execnode.Replica:
		s.ReadsServed += n.Metrics.ReadsServed
		s.ReadsRefused += n.Metrics.ReadsRefused
	}
	if se, ok := node.(interface{ StorageErr() error }); ok && se.StorageErr() != nil {
		s.StorageFailures++
	}
}

// clusterRuntime is the running form of a cluster behind a transport: it
// executes operations on behalf of logical clients and owns every node's
// lifetime.
type clusterRuntime interface {
	// invoke runs op through logical client idx and blocks until a
	// certified reply, an error, ctx cancellation, or the timeout. The
	// caller guarantees at most one invoke per idx at a time.
	invoke(ctx context.Context, idx int, op []byte, timeout time.Duration) (invokeResult, error)

	// readCertified probes the execution replicas through logical client
	// idx for a read certified at or above floor, and blocks until the
	// attempt completes (certified or definite mismatch), an error, ctx
	// cancellation, or the timeout. core.ErrNoReadPath reports a
	// configuration without the read path (BASE, firewall); callers fall
	// back to invoke. The caller guarantees at most one readCertified per
	// idx at a time (invoke and readCertified on the same idx may overlap:
	// a logical client holds one request and one read concurrently).
	readCertified(ctx context.Context, idx int, op []byte, floor uint64, timeout time.Duration) (readAttempt, error)

	// stats snapshots aggregate counters; it errors when the runtime has
	// already shut down rather than returning misleading zeros.
	stats() (Stats, error)

	// close tears the cluster down gracefully, flushing durable stores.
	// Idempotent.
	close() error

	// kill tears the cluster down abruptly — durable stores are abandoned
	// unflushed, the in-process equivalent of kill -9 on every node.
	// Recovery tests depend on this NOT flushing; a runtime without real
	// crash semantics must not silently fall back to close.
	kill()
}

// SimConfig tunes the simulated transport.
type SimConfig struct {
	// Seed fixes the network schedule (loss, delays, ordering); runs with
	// the same seed and workload are bit-for-bit deterministic. Zero
	// falls back to the cluster's WithNetSeed / key seed.
	Seed int64

	// Drop is the per-message loss probability on every link.
	Drop float64

	// MinDelay and MaxDelay bound the uniform per-message delivery delay.
	// Zero values keep the default fast-LAN model (50–200µs).
	MinDelay, MaxDelay time.Duration

	// MeasureCompute charges each node's real handler compute time to the
	// virtual clock, so cryptographic costs surface in virtual-time
	// measurements (benchmarks use this; correctness tests leave it off).
	MeasureCompute bool
}

// SimTransport runs every node in-process on a deterministic simulated
// network with a virtual clock — the default transport, and the only one
// offering fault injection (crashes, taps, Byzantine nodes).
func SimTransport(cfg ...SimConfig) Transport {
	t := &simTransport{}
	if len(cfg) > 0 {
		t.cfg = cfg[0]
	}
	return t
}

// TCPConfig tunes the TCP transport.
type TCPConfig struct {
	// BasePort assigns consecutive loopback ports starting here. Zero
	// picks free ports automatically.
	BasePort int

	// Logf receives transport-level connection events; nil silences them.
	Logf func(format string, args ...interface{})
}

// TCPTransport runs every node in-process but communicating over real
// loopback TCP sockets with length-prefixed frames — the same wiring the
// multi-process deployment tools use, collapsed into one process.
func TCPTransport(cfg ...TCPConfig) Transport {
	t := &tcpTransport{}
	if len(cfg) > 0 {
		t.cfg = cfg[0]
	}
	return t
}
