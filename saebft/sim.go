package saebft

import (
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
		c:     c,
		posts: make(chan func(types.Time), 4*len(c.Clients)+16),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i, cl := range c.Clients {
		ep := newEndpoint(cl, r.quit, &r.active)
		ep.do = r.post
		c.Net.Swap(c.Top.Clients[i], ep)
		r.endpoints = append(r.endpoints, ep)
	}
	go r.loop()
	return r, nil
}

// simRuntime drives the simulated cluster from a single goroutine that owns
// the virtual clock: it runs posted work (call admission, cancellation,
// inspection), steps the network while any call is in flight, and parks
// when idle. All cluster state — protocol nodes, fault injection, stats —
// is touched only on that goroutine, which preserves the deterministic
// single-threaded discipline of the simulator while presenting a
// concurrent, context-aware API to callers.
type simRuntime struct {
	endpoints
	c      *core.Cluster
	posts  chan func(now types.Time)
	quit   chan struct{}
	done   chan struct{}
	once   sync.Once
	active int // calls in flight; driver goroutine only

	// holdStepping parks the driver without blocking admission; tests use
	// it to observe a deterministic number of in-flight requests.
	holdStepping atomic.Bool
}

func (r *simRuntime) loop() {
	defer close(r.done)
	for {
		// Posted work runs first; this non-blocking drain is the only
		// per-step cost beside the step itself.
		select {
		case <-r.quit:
			return
		case fn := <-r.posts:
			fn(r.c.Net.Now())
			continue
		default:
		}
		if r.active == 0 {
			// Idle: park until there is work. The virtual clock does
			// not advance while nothing is in flight.
			select {
			case <-r.quit:
				return
			case fn := <-r.posts:
				fn(r.c.Net.Now())
			}
			continue
		}
		if r.holdStepping.Load() {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		r.c.Net.Step()
	}
}

// post queues fn for the driver goroutine without waiting for it to run;
// it is the simulator's endpoint do.
func (r *simRuntime) post(fn func(now types.Time)) {
	select {
	case r.posts <- fn:
	case <-r.quit:
	}
}

// do runs fn on the driver goroutine, serialized against all protocol
// activity, and waits for it.
func (r *simRuntime) do(fn func()) error {
	ran := make(chan struct{})
	r.post(func(types.Time) { fn(); close(ran) })
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
		for _, ep := range r.endpoints {
			s.addNode(ep)
		}
		for _, id := range r.c.Top.Agreement {
			if an, ok := r.c.Agreement[id]; ok {
				s.addNode(an)
			} else {
				s.addNode(r.c.Engines[id]) // BASE: the engine is the node
			}
		}
		for _, ex := range r.c.Execs {
			s.addNode(ex)
		}
		for _, f := range r.c.Filters {
			s.addNode(f)
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

// crash marks one node as crashed.
func (r *simRuntime) crash(id types.NodeID) error {
	return r.do(func() { r.c.Net.Crash(id) })
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
