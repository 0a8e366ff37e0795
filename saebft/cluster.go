package saebft

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Cluster is a full deployment — agreement replicas, execution replicas,
// filters, and logical clients — owned by this process and wired over the
// configured Transport.
//
// Lifecycle: NewCluster validates options and derives topology and key
// material; Start brings every node up; Close tears everything down. If the
// context given to Start is cancelable, cancellation closes the cluster.
type Cluster struct {
	o       options
	builder *core.Builder
	handle  *Client

	mu        sync.Mutex
	rt        clusterRuntime
	ops       *obs.OpsServer
	watchStop chan struct{}
	closed    bool
}

// NewCluster validates the options and derives the cluster's topology and
// deterministic key material. No node runs until Start.
func NewCluster(optfns ...Option) (*Cluster, error) {
	var o options
	for _, fn := range optfns {
		fn(&o)
	}
	o.fillDefaults()
	if o.tls.enabled() {
		if _, ok := o.transport.(*tcpTransport); !ok {
			return nil, errors.New("saebft: WithTLS requires WithTransport(TCPTransport(...)); the simulated transport has no links to secure")
		}
		if o.tls.Dir != "" && o.tls.Ephemeral {
			return nil, errors.New("saebft: TLSConfig sets both Dir and Ephemeral")
		}
	}
	copts, err := o.coreOptions()
	if err != nil {
		return nil, err
	}
	b, err := core.NewBuilder(copts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{o: o, builder: b}
	c.handle = newClusterClient(c, o.clients, o.invokeTimeout)
	c.handle.registerClientObs(o.obsReg)
	if o.clientBatch.enabled {
		c.handle.bat = newBatcher(c.handle, o.clientBatch)
	}
	return c, nil
}

// Start brings every node of the cluster up on the configured transport.
// If ctx is cancelable, its cancellation closes the cluster.
func (c *Cluster) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.rt != nil {
		return errors.New("saebft: cluster already started")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rt, err := c.o.transport.start(c.builder, &c.o)
	if err != nil {
		return err
	}
	if c.o.metricsAddr != "" {
		srv, err := obs.ServeOps(c.o.metricsAddr, c.o.obsReg, c.o.obsTrace)
		if err != nil {
			rt.close()
			return fmt.Errorf("saebft: ops endpoint: %w", err)
		}
		c.ops = srv
	}
	c.rt = rt
	if ctx.Done() != nil {
		stop := make(chan struct{})
		c.watchStop = stop
		go func() {
			select {
			case <-ctx.Done():
				c.Close()
			case <-stop:
			}
		}()
	}
	return nil
}

// Close shuts the cluster down and releases every node. Idempotent.
func (c *Cluster) Close() error {
	rt, done := c.teardown()
	if done || rt == nil {
		return nil
	}
	return rt.close()
}

// teardown performs the shared shutdown preamble (mark closed, stop the
// context watcher, drain the client handle) and hands back the runtime for
// the caller to close or kill. done reports an earlier teardown already ran.
func (c *Cluster) teardown() (rt clusterRuntime, done bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, true
	}
	c.closed = true
	rt = c.rt
	ops := c.ops
	c.ops = nil
	stop := c.watchStop
	c.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	ops.Close() // nil-safe; stops serving before the nodes go away
	// Drain the handle first: queued (not yet dispatched) operations fail
	// with ErrClosed immediately, then closing the runtime resolves the
	// in-flight ones.
	c.handle.shutdown()
	return rt, false
}

// kill tears the cluster down abruptly, skipping the durable-store flush —
// the in-process equivalent of kill -9 on every node at once. Recovery
// tests use it to exercise crash restarts; everything else should Close.
func (c *Cluster) kill() {
	rt, done := c.teardown()
	if done || rt == nil {
		return
	}
	rt.kill()
}

// runtime returns the live runtime, or the lifecycle error explaining why
// there is none.
func (c *Cluster) runtime() (clusterRuntime, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.rt == nil {
		return nil, ErrNotStarted
	}
	return c.rt, nil
}

// Client returns the cluster's client handle. The same handle is returned
// on every call; it is safe for concurrent use and pipelines up to
// WithClients concurrent invocations. It becomes usable after Start.
func (c *Cluster) Client() *Client { return c.handle }

// Info describes the built topology.
func (c *Cluster) Info() Info {
	top := c.builder.Top
	info := Info{
		Mode:      c.o.mode,
		F:         top.F(),
		Agreement: len(top.Agreement),
		Clients:   len(top.Clients),
	}
	// BASE couples execution into the agreement replicas; the topology
	// still lays out executor identities, but none is ever built.
	if c.o.mode != ModeBase {
		info.Execution = len(top.Execution)
		info.G = top.G()
	}
	if top.HasFirewall() {
		info.H = top.H()
		info.FilterRows = len(top.Filters)
		for _, row := range top.Filters {
			info.Filters += len(row)
		}
	}
	return info
}

// Stats snapshots aggregate counters from the running cluster.
func (c *Cluster) Stats() (Stats, error) {
	rt, err := c.runtime()
	if err != nil {
		return Stats{}, err
	}
	return rt.stats()
}

// sim returns the simulated runtime, or ErrSimOnly on other transports.
func (c *Cluster) sim() (*simRuntime, error) {
	rt, err := c.runtime()
	if err != nil {
		return nil, err
	}
	sr, ok := rt.(*simRuntime)
	if !ok {
		return nil, ErrSimOnly
	}
	return sr, nil
}

// VirtualTime reports the simulated transport's current virtual clock
// (simulated transport only). Benchmarks measure deterministic virtual-time
// throughput with it: the clock advances only with simulated network and
// (optionally) compute activity, never with host wall time.
func (c *Cluster) VirtualTime() (time.Duration, error) {
	sr, err := c.sim()
	if err != nil {
		return 0, err
	}
	var now time.Duration
	if err := sr.do(func() { now = time.Duration(sr.c.Net.Now()) }); err != nil {
		return 0, err
	}
	return now, nil
}

// CrashAgreement crashes agreement replica i (simulated transport only).
// Crashing the current primary exercises the view change.
func (c *Cluster) CrashAgreement(i int) error {
	sr, err := c.sim()
	if err != nil {
		return err
	}
	top := c.builder.Top
	if i < 0 || i >= len(top.Agreement) {
		return fmt.Errorf("saebft: agreement replica %d out of range", i)
	}
	return sr.crash(top.Agreement[i])
}

// CrashExec crashes execution replica i (simulated transport only).
func (c *Cluster) CrashExec(i int) error {
	sr, err := c.sim()
	if err != nil {
		return err
	}
	top := c.builder.Top
	if i < 0 || i >= len(top.Execution) {
		return fmt.Errorf("saebft: execution replica %d out of range", i)
	}
	return sr.crash(top.Execution[i])
}

// CrashFilter crashes the firewall filter at (row, col) (simulated
// transport, firewall mode only).
func (c *Cluster) CrashFilter(row, col int) error {
	sr, err := c.sim()
	if err != nil {
		return err
	}
	top := c.builder.Top
	if row < 0 || row >= len(top.Filters) || col < 0 || col >= len(top.Filters[row]) {
		return fmt.Errorf("saebft: filter (%d,%d) out of range", row, col)
	}
	return sr.crash(top.Filters[row][col])
}

// ByzantineExec replaces execution replica i with an active adversary that
// floods the cluster with forged reply shares and garbage instead of
// executing operations (simulated transport only). The service must keep
// returning correct certified results despite it — that is the paper's
// claim, and tests assert it.
func (c *Cluster) ByzantineExec(i int) error {
	sr, err := c.sim()
	if err != nil {
		return err
	}
	return sr.byzantine(i)
}

// Tap observes every delivered message (simulated transport only): fn runs
// on the simulation goroutine for each delivery and must not call back into
// the cluster. Examples use it to verify that sealed request/reply bodies
// never cross the network in plaintext.
func (c *Cluster) Tap(fn func(from, to int, payload []byte)) error {
	sr, err := c.sim()
	if err != nil {
		return err
	}
	return sr.tap(fn)
}
