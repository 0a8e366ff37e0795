package saebft

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// simTransport builds clusters on the deterministic in-process simulator.
type simTransport struct {
	cfg SimConfig
}

func (t *simTransport) start(b *core.Builder, o *options) (clusterRuntime, error) {
	// Shallow-copy the builder to adjust the network config without
	// mutating the caller's; topology and key material (the expensive
	// part) are reused as-is.
	nb := *b
	if t.cfg.Seed != 0 {
		nb.Opts.Net.Seed = t.cfg.Seed
	}
	if t.cfg.Drop != 0 || t.cfg.MinDelay != 0 || t.cfg.MaxDelay != 0 {
		link := transport.DefaultLinkOpts()
		link.Drop = t.cfg.Drop
		if t.cfg.MinDelay != 0 {
			link.MinDelay = types.Time(t.cfg.MinDelay.Nanoseconds())
		}
		if t.cfg.MaxDelay != 0 {
			link.MaxDelay = types.Time(t.cfg.MaxDelay.Nanoseconds())
		}
		nb.Opts.Net.DefaultLink = link
	}
	nb.Opts.Net.MeasureCompute = t.cfg.MeasureCompute
	c, err := core.BuildSimFrom(&nb)
	if err != nil {
		return nil, err
	}
	if o.storage.DataDir != "" {
		// Durable deployments outlive the process, so client identities may
		// be reused across incarnations. Wall-clock timestamps keep this
		// incarnation's requests above any predecessor's in the recovered
		// exactly-once reply tables (mirrors the TCP endpoints).
		now := types.Timestamp(time.Now().UnixNano())
		for _, cl := range c.Clients {
			cl.SetTimestamp(now)
		}
	}
	r := &simRuntime{
		c:       c,
		submits: make(chan *simCall, 4*len(c.Clients)+16),
		calls:   make(chan func()),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.loop()
	return r, nil
}

// simCall is one in-flight invocation or certified-read probe inside the
// driver.
type simCall struct {
	ctx      context.Context
	idx      int
	op       []byte
	read     bool         // certified-read probe instead of an invocation
	floor    types.SeqNum // read-only: session floor the answer must meet
	timeout  types.Time
	deadline types.Time // virtual; set at admission
	done     chan simDone
}

// simDone is the driver's completion record for one simCall.
type simDone struct {
	res  invokeResult // writes
	read readAttempt  // reads
	err  error
}

// simKey identifies one in-flight call: a logical client holds at most one
// request and one read concurrently, so (idx, read) is unique.
type simKey struct {
	idx  int
	read bool
}

// simRuntime drives the simulated cluster from a single goroutine that owns
// the virtual clock: it admits submissions, steps the network while any
// request is in flight, and parks when idle. All cluster state — protocol
// nodes, fault injection, stats — is touched only on that goroutine, which
// preserves the deterministic single-threaded discipline of the simulator
// while presenting a concurrent, context-aware API to callers.
type simRuntime struct {
	c       *core.Cluster
	submits chan *simCall
	calls   chan func()
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once

	// holdStepping parks the driver without blocking admission; tests use
	// it to observe a deterministic number of in-flight requests.
	holdStepping atomic.Bool
}

func (r *simRuntime) loop() {
	defer close(r.done)
	pending := make(map[simKey]*simCall)
	admit := func(call *simCall) {
		cl := r.c.Clients[call.idx]
		var err error
		if call.read {
			err = cl.SubmitRead(call.op, call.floor, r.c.Net.Now())
		} else {
			err = cl.Submit(call.op, r.c.Net.Now())
		}
		if err != nil {
			call.done <- simDone{err: err}
			return
		}
		call.deadline = r.c.Net.Now() + call.timeout
		pending[simKey{call.idx, call.read}] = call
	}
	cancel := func(call *simCall) {
		cl := r.c.Clients[call.idx]
		if call.read {
			cl.CancelRead()
		} else {
			cl.Cancel()
		}
	}
	for {
		if len(pending) == 0 {
			// Idle: park until there is work. The virtual clock does
			// not advance while nothing is in flight.
			select {
			case <-r.quit:
				return
			case fn := <-r.calls:
				fn()
			case call := <-r.submits:
				admit(call)
			}
			continue
		}
		// Busy: drain control work without blocking, then advance the
		// simulation one event.
		for draining := true; draining; {
			select {
			case <-r.quit:
				for _, call := range pending {
					call.done <- simDone{err: ErrClosed}
				}
				return
			case fn := <-r.calls:
				fn()
			case call := <-r.submits:
				admit(call)
			default:
				draining = false
			}
		}
		if r.holdStepping.Load() {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		stepped := r.c.Net.Step()
		now := r.c.Net.Now()
		for key, call := range pending {
			cl := r.c.Clients[key.idx]
			switch {
			case call.ctx.Err() != nil:
				cancel(call)
				call.done <- simDone{err: call.ctx.Err()}
				delete(pending, key)
			case call.read && cl.ReadDone():
				out, _ := cl.TakeReadOutcome()
				call.done <- simDone{read: readAttemptFrom(out)}
				delete(pending, key)
			case !call.read && cl.HasResult():
				body, seq, _ := cl.ResultSeq()
				call.done <- simDone{res: invokeResult{body: body, seq: uint64(seq)}}
				delete(pending, key)
			case now > call.deadline || !stepped:
				// !stepped means the event queue ran dry, which can
				// only happen with no live nodes: time would stand
				// still forever, so fail fast rather than spin.
				cancel(call)
				call.done <- simDone{err: fmt.Errorf("%w after %v (virtual)", ErrTimeout, time.Duration(call.timeout))}
				delete(pending, key)
			}
		}
	}
}

func (r *simRuntime) submit(call *simCall) (simDone, error) {
	select {
	case r.submits <- call:
	case <-call.ctx.Done():
		return simDone{}, call.ctx.Err()
	case <-r.quit:
		return simDone{}, ErrClosed
	}
	// The driver checks ctx on every iteration, so it — not this select —
	// resolves cancellation; that keeps the logical client leased until
	// its protocol state is actually quiesced.
	select {
	case res := <-call.done:
		return res, res.err
	case <-r.done:
		return simDone{}, ErrClosed
	}
}

func (r *simRuntime) invoke(ctx context.Context, idx int, op []byte, timeout time.Duration) (invokeResult, error) {
	if idx < 0 || idx >= len(r.c.Clients) {
		return invokeResult{}, fmt.Errorf("saebft: logical client %d out of range", idx)
	}
	res, err := r.submit(&simCall{
		ctx:     ctx,
		idx:     idx,
		op:      op,
		timeout: types.Time(timeout.Nanoseconds()),
		done:    make(chan simDone, 1),
	})
	return res.res, err
}

func (r *simRuntime) readCertified(ctx context.Context, idx int, op []byte, floor uint64, timeout time.Duration) (readAttempt, error) {
	if idx < 0 || idx >= len(r.c.Clients) {
		return readAttempt{}, fmt.Errorf("saebft: logical client %d out of range", idx)
	}
	res, err := r.submit(&simCall{
		ctx:     ctx,
		idx:     idx,
		op:      op,
		read:    true,
		floor:   types.SeqNum(floor),
		timeout: types.Time(timeout.Nanoseconds()),
		done:    make(chan simDone, 1),
	})
	return res.read, err
}

// do runs fn on the driver goroutine, serialized against all protocol
// activity.
func (r *simRuntime) do(fn func()) error {
	ran := make(chan struct{})
	wrapped := func() { fn(); close(ran) }
	select {
	case r.calls <- wrapped:
	case <-r.done:
		return ErrClosed
	}
	select {
	case <-ran:
		return nil
	case <-r.done:
		return ErrClosed
	}
}

func (r *simRuntime) stats() (Stats, error) {
	var s Stats
	err := r.do(func() {
		for _, cl := range r.c.Clients {
			s.Requests += cl.Metrics.Requests
			s.Retransmits += cl.Metrics.Retransmits
			s.Replies += cl.Metrics.Replies
			s.BadReplies += cl.Metrics.BadReplies
			s.Reads += cl.Metrics.Reads
			s.ReadsCertified += cl.Metrics.ReadsCertified
			s.ReadMismatches += cl.Metrics.ReadMismatches
			s.BadReadReplies += cl.Metrics.BadReadReplies
		}
		for _, ex := range r.c.Execs {
			s.ReadsServed += ex.Metrics.ReadsServed
			s.ReadsRefused += ex.Metrics.ReadsRefused
		}
		for _, f := range r.c.Filters {
			s.SharesRejected += f.Metrics.SharesRejected
		}
		for _, q := range r.c.Queues {
			s.SharesRejected += q.Metrics.SharesRejected
		}
		for _, e := range r.c.Engines {
			if e.StorageErr() != nil {
				s.StorageFailures++
			}
		}
		for _, ex := range r.c.Execs {
			if ex.StorageErr() != nil {
				s.StorageFailures++
			}
		}
		s.MessagesDelivered = r.c.Net.Stats.Delivered
		s.MessagesDropped = r.c.Net.Stats.Dropped
	})
	return s, err
}

func (r *simRuntime) close() error {
	r.once.Do(func() {
		close(r.quit)
		<-r.done
		// The driver goroutine is gone; nodes are quiesced. Flush and
		// close durable stores (no-op for in-memory clusters).
		r.c.Shutdown()
	})
	return nil
}

// kill tears the runtime down without flushing durable stores, simulating a
// whole-process crash (recovery tests only): buffered appends are
// discarded and data-dir locks released, as process death would do.
func (r *simRuntime) kill() {
	r.once.Do(func() {
		close(r.quit)
		<-r.done
		r.c.Kill()
	})
}

// crash marks one node as crashed. kindRole is a types.Role.
func (r *simRuntime) crash(id types.NodeID) error {
	return r.do(func() { r.c.Net.Crash(id) })
}

func (r *simRuntime) revive(id types.NodeID) error {
	return r.do(func() { r.c.Net.Revive(id) })
}

func (r *simRuntime) tap(fn func(from, to int, payload []byte)) error {
	return r.do(func() {
		r.c.Net.Tap(func(from, to types.NodeID, data []byte) {
			fn(int(from), int(to), data)
		})
	})
}

// byzantine replaces execution replica i with an active adversary that
// floods its upstream neighbors with forged reply shares (claiming bogus
// results for the first client) and raw garbage, instead of executing
// anything. The correct protocol must mask it: filters/queues reject the
// forgeries and g+1 correct executors still certify real replies.
func (r *simRuntime) byzantine(i int) error {
	top := r.c.Top
	if len(top.Execution) == 0 {
		return fmt.Errorf("saebft: mode has no execution replicas to compromise")
	}
	if i < 0 || i >= len(top.Execution) {
		return fmt.Errorf("saebft: execution replica %d out of range", i)
	}
	evil := top.Execution[i]
	var targets []types.NodeID
	if top.HasFirewall() {
		targets = top.Filters[top.H()]
	} else {
		targets = top.Agreement
	}
	return r.do(func() {
		send := r.c.Net.Bind(evil)
		r.c.Net.Swap(evil, transport.NodeFunc{
			OnDeliver: func(from types.NodeID, data []byte, now types.Time) {
				for _, t := range targets {
					forged := &wire.ExecReply{
						Entries: []wire.Reply{{
							Seq: 1, Client: top.Clients[0], Timestamp: 1,
							Body: []byte("FORGED"),
						}},
						Executor: evil,
						Share:    []byte("not a valid threshold share"),
					}
					send(t, wire.Marshal(forged))
					send(t, []byte("garbage"))
				}
			},
		})
	})
}
