package saebft

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/execnode"
	"repro/internal/firewall"
	"repro/internal/transport"
	"repro/internal/types"
)

// tcpTransport builds clusters whose nodes all live in this process but
// communicate over real loopback TCP sockets.
type tcpTransport struct {
	cfg TCPConfig
}

func (t *tcpTransport) start(b *core.Builder, o *options) (clusterRuntime, error) {
	addrs, bound, err := pickAddrs(b.Top.AllNodes(), t.cfg.BasePort)
	if err != nil {
		return nil, err
	}
	// Listeners no endpoint took over: identities that run no node (BASE
	// mode's executors), or everything after a failed start.
	defer func() {
		for _, ln := range bound {
			ln.Close()
		}
	}()
	secFor, err := o.tls.provider()
	if err != nil {
		return nil, err
	}
	topts := func(id types.NodeID) (transport.TCPOptions, error) {
		to := transport.TCPOptions{Obs: o.obsReg, ObsNode: strconv.Itoa(int(id)), Listener: bound[id]}
		delete(bound, id) // the endpoint owns it from here
		if secFor == nil {
			return to, nil
		}
		sec, err := secFor(id)
		if err != nil {
			return transport.TCPOptions{}, fmt.Errorf("saebft: TLS material for node %v: %w", id, err)
		}
		to.Security = sec
		return to, nil
	}
	r := &tcpRuntime{quit: make(chan struct{})}
	for _, id := range serverIDs(b) {
		to, err := topts(id)
		if err != nil {
			r.close()
			return nil, err
		}
		n, err := startNode(b, addrs, id, to)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("saebft: starting node %v: %w", id, err)
		}
		n.net.SetLogf(logfOrSilent(t.cfg.Logf))
		r.nodes = append(r.nodes, n)
	}
	for _, cid := range b.Top.Clients {
		to, err := topts(cid)
		if err != nil {
			r.close()
			return nil, err
		}
		ep, err := newTCPEndpoint(b, addrs, cid, t.cfg.Logf, to)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("saebft: starting client endpoint %v: %w", cid, err)
		}
		r.eps = append(r.eps, ep)
	}
	return r, nil
}

// serverIDs lists every identity that actually runs a node, in
// deterministic order. BASE mode builds no execution replicas even though
// the topology lays out their identities.
func serverIDs(b *core.Builder) []types.NodeID {
	top := b.Top
	var ids []types.NodeID
	ids = append(ids, top.Agreement...)
	if b.Opts.Mode != core.ModeBASE {
		ids = append(ids, top.Execution...)
	}
	for _, row := range top.Filters {
		ids = append(ids, row...)
	}
	return ids
}

// pickAddrs assigns a loopback address to every identity: consecutive ports
// from basePort, or kernel-chosen free ports when basePort is zero. A
// kernel-chosen port stays bound — its listener is returned for the
// identity's endpoint to serve on — because a port released here could be
// taken by a peer's outbound connection before the endpoint binds it again.
func pickAddrs(ids []types.NodeID, basePort int) (map[types.NodeID]string, map[types.NodeID]net.Listener, error) {
	addrs := make(map[types.NodeID]string, len(ids))
	bound := make(map[types.NodeID]net.Listener)
	for i, id := range ids {
		if basePort > 0 {
			addrs[id] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, held := range bound {
				held.Close()
			}
			return nil, nil, err
		}
		addrs[id] = ln.Addr().String()
		bound[id] = ln
	}
	return addrs, bound, nil
}

func logfOrSilent(logf func(string, ...interface{})) func(string, ...interface{}) {
	if logf != nil {
		return logf
	}
	return func(string, ...interface{}) {}
}

// runningNode is one live TCP-backed replica: agreement, execution, or
// filter.
type runningNode struct {
	net     *transport.TCPNet
	node    transport.Node
	runtime *transport.Runtime
}

// startNode runs replica id of an already-prepared builder over TCP with
// the given link options (mutual TLS, timeouts, queue bounds). It returns
// once the node is listening; the node runs until close. Both the
// in-process TCP cluster and Node.Start launch replicas through it.
func startNode(b *core.Builder, addrs map[types.NodeID]string, id types.NodeID, topts transport.TCPOptions) (*runningNode, error) {
	role, _, ok := b.Top.RoleOf(id)
	if !ok {
		return nil, fmt.Errorf("saebft: node %v is not part of the topology", id)
	}

	// Link metrics land in the same registry as the protocol layers unless
	// the caller wired the transport explicitly.
	if topts.Obs == nil {
		topts.Obs = b.Opts.Obs
	}
	if topts.Obs != nil && topts.ObsNode == "" {
		topts.ObsNode = strconv.Itoa(int(id))
	}

	// The TCP handler is installed after construction; an atomic
	// indirection breaks the circular dependency between node and net.
	// Messages arriving before installation are dropped, which the
	// protocols tolerate (peers retransmit).
	var runtimeHandler atomic.Pointer[func(from types.NodeID, data []byte)]
	tcp, err := transport.NewTCPNetOpts(id, addrs, func(from types.NodeID, data []byte) {
		if h := runtimeHandler.Load(); h != nil {
			(*h)(from, data)
		}
	}, topts)
	if err != nil {
		return nil, err
	}

	var node transport.Node
	switch role {
	case types.RoleAgreement:
		node, _, _, err = b.AgreementNode(id, tcp.Send)
	case types.RoleExecution:
		node, _, err = b.ExecNode(id, tcp.Send)
	case types.RoleFilter:
		node, err = b.FilterNode(id, tcp.Send)
	default:
		err = fmt.Errorf("saebft: identity %v is a client; use Dial", id)
	}
	if err != nil {
		tcp.Close()
		return nil, err
	}
	rt, handler := transport.NewRuntime(node, tcp.Now, time.Millisecond)
	runtimeHandler.Store(&handler)
	return &runningNode{net: tcp, node: node, runtime: rt}, nil
}

// inspect runs fn on the node's runtime goroutine with the protocol node,
// serialized against message delivery.
func (n *runningNode) inspect(fn func(node transport.Node)) {
	n.runtime.Do(func(types.Time) { fn(n.node) })
}

// close shuts the node down gracefully: the durable store (if any) is
// flushed and closed on the runtime goroutine — serialized against message
// delivery, so no record is torn mid-write — before the transports stop.
func (n *runningNode) close() {
	n.runtime.Do(func(types.Time) {
		if s, ok := n.node.(interface{ Shutdown() }); ok {
			s.Shutdown()
		}
	})
	n.runtime.Close()
	n.net.Close()
}

// kill tears the node down without flushing its store, simulating a crash
// (kill -9): buffered WAL appends are discarded and the data-dir lock
// released, as process death would. Recovery tests use it; everything else
// should close.
func (n *runningNode) kill() {
	n.runtime.Close()
	if cs, ok := n.node.(interface{ CrashStop() }); ok {
		cs.CrashStop()
	}
	n.net.Close()
}

// tcpEndpoint is one logical client over TCP: a protocol-core client driven
// by its own runtime goroutine, completing invocations through an
// event-driven result channel (no polling).
type tcpEndpoint struct {
	id      types.NodeID
	cl      *core.Client
	net     *transport.TCPNet
	rt      *transport.Runtime
	results chan invokeResult
	reads   chan core.ReadOutcome
}

func newTCPEndpoint(b *core.Builder, addrs map[types.NodeID]string, id types.NodeID, logf func(string, ...interface{}), topts transport.TCPOptions) (*tcpEndpoint, error) {
	// The runtime's handler is installed after construction; the atomic
	// indirection keeps early inbound messages (dropped, retransmitted by
	// peers) from racing the installation.
	var handler atomic.Pointer[func(from types.NodeID, data []byte)]
	tcp, err := transport.NewTCPNetOpts(id, addrs, func(from types.NodeID, data []byte) {
		if h := handler.Load(); h != nil {
			(*h)(from, data)
		}
	}, topts)
	if err != nil {
		return nil, err
	}
	tcp.SetLogf(logfOrSilent(logf))
	cl, err := b.ClientNode(id, tcp.Send)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	// Identities may be reused by later processes (CLI tools, restarted
	// embedders); wall-clock timestamps keep this incarnation's requests
	// above any predecessor's in the executors' exactly-once reply table.
	cl.SetTimestamp(types.Timestamp(time.Now().UnixNano()))
	ep := &tcpEndpoint{
		id:      id,
		cl:      cl,
		net:     tcp,
		results: make(chan invokeResult, 1),
		reads:   make(chan core.ReadOutcome, 1),
	}
	// The hooks fire on the runtime goroutine; capacity 1 suffices because
	// each logical client has at most one request and one read outstanding.
	cl.SetOnResult(func(body []byte, seq types.SeqNum) {
		select {
		case ep.results <- invokeResult{body: body, seq: uint64(seq)}:
		default:
		}
	})
	cl.SetOnReadDone(func(out core.ReadOutcome) {
		select {
		case ep.reads <- out:
		default:
		}
	})
	rt, h := transport.NewRuntime(cl, tcp.Now, time.Millisecond)
	handler.Store(&h)
	ep.rt = rt
	return ep, nil
}

func (ep *tcpEndpoint) close() {
	ep.rt.Close()
	ep.net.Close()
}

// tcpRuntime serves invocations over a set of TCP client endpoints. When it
// also owns server nodes (in-process TCP cluster) it tears them down on
// close; for dialed handles against an external deployment, nodes is nil.
type tcpRuntime struct {
	nodes []*runningNode
	eps   []*tcpEndpoint
	quit  chan struct{}
	once  sync.Once
}

func (r *tcpRuntime) invoke(ctx context.Context, idx int, op []byte, timeout time.Duration) (invokeResult, error) {
	if idx < 0 || idx >= len(r.eps) {
		return invokeResult{}, fmt.Errorf("saebft: logical client %d out of range", idx)
	}
	ep := r.eps[idx]
	select {
	case <-ep.results: // clear any stale result from an abandoned request
	default:
	}
	var submitErr error
	ep.rt.Do(func(now types.Time) { submitErr = ep.cl.Submit(op, now) })
	if submitErr != nil {
		return invokeResult{}, submitErr
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	abandon := func() {
		ep.rt.Do(func(types.Time) { ep.cl.Cancel() })
		select {
		case <-ep.results: // a result may have raced the cancellation
		default:
		}
	}
	select {
	case res := <-ep.results:
		return res, nil
	case <-ctx.Done():
		abandon()
		return invokeResult{}, ctx.Err()
	case <-timer.C:
		abandon()
		return invokeResult{}, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	case <-r.quit:
		return invokeResult{}, ErrClosed
	}
}

func (r *tcpRuntime) readCertified(ctx context.Context, idx int, op []byte, floor uint64, timeout time.Duration) (readAttempt, error) {
	if idx < 0 || idx >= len(r.eps) {
		return readAttempt{}, fmt.Errorf("saebft: logical client %d out of range", idx)
	}
	ep := r.eps[idx]
	select {
	case <-ep.reads: // clear any stale outcome from an abandoned read
	default:
	}
	var submitErr error
	ep.rt.Do(func(now types.Time) { submitErr = ep.cl.SubmitRead(op, types.SeqNum(floor), now) })
	if submitErr != nil {
		return readAttempt{}, submitErr
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	abandon := func() {
		ep.rt.Do(func(types.Time) { ep.cl.CancelRead() })
		select {
		case <-ep.reads: // an outcome may have raced the cancellation
		default:
		}
	}
	select {
	case out := <-ep.reads:
		return readAttemptFrom(out), nil
	case <-ctx.Done():
		abandon()
		return readAttempt{}, ctx.Err()
	case <-timer.C:
		abandon()
		return readAttempt{}, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	case <-r.quit:
		return readAttempt{}, ErrClosed
	}
}

func (r *tcpRuntime) stats() (Stats, error) {
	var s Stats
	for _, ep := range r.eps {
		select {
		case <-r.quit:
			return Stats{}, ErrClosed
		default:
		}
		ep.rt.Do(func(types.Time) {
			s.Requests += ep.cl.Metrics.Requests
			s.Retransmits += ep.cl.Metrics.Retransmits
			s.Replies += ep.cl.Metrics.Replies
			s.BadReplies += ep.cl.Metrics.BadReplies
			s.Reads += ep.cl.Metrics.Reads
			s.ReadsCertified += ep.cl.Metrics.ReadsCertified
			s.ReadMismatches += ep.cl.Metrics.ReadMismatches
			s.BadReadReplies += ep.cl.Metrics.BadReadReplies
		})
	}
	// Node-hosted metrics live inside this process's nodes (in-process TCP
	// cluster); a dialed handle has no nodes and reports zero for them.
	for _, n := range r.nodes {
		select {
		case <-r.quit:
			return Stats{}, ErrClosed
		default:
		}
		n.inspect(func(node transport.Node) {
			if f, ok := node.(*firewall.Filter); ok {
				s.SharesRejected += f.Metrics.SharesRejected
			}
			if an, ok := node.(*core.AgreementNode); ok {
				s.SharesRejected += an.Queue.Metrics.SharesRejected
			}
			if ex, ok := node.(*execnode.Replica); ok {
				s.ReadsServed += ex.Metrics.ReadsServed
				s.ReadsRefused += ex.Metrics.ReadsRefused
			}
			if se, ok := node.(interface{ StorageErr() error }); ok && se.StorageErr() != nil {
				s.StorageFailures++
			}
		})
	}
	s.Link = r.linkSnapshot()
	return s, nil
}

// linkSnapshot folds every endpoint's and node's transport counters into
// one LinkStats. Both public stats surfaces — Client.Stats on a dialed
// handle and Cluster.Stats on an owned cluster — reach the link counters
// only through here, so the two can never drift by accumulating different
// snapshot sets per call site.
func (r *tcpRuntime) linkSnapshot() LinkStats {
	var link LinkStats
	for _, n := range r.nodes {
		link.add(n.net.Stats())
	}
	for _, ep := range r.eps {
		link.add(ep.net.Stats())
	}
	return link
}

func (r *tcpRuntime) close() error {
	r.once.Do(func() {
		close(r.quit)
		for _, ep := range r.eps {
			ep.close()
		}
		for _, n := range r.nodes {
			n.close() // graceful: flushes each node's durable store
		}
	})
	return nil
}

// kill tears the runtime down without flushing durable stores, simulating a
// whole-process crash (recovery tests only).
func (r *tcpRuntime) kill() {
	r.once.Do(func() {
		close(r.quit)
		for _, ep := range r.eps {
			ep.close()
		}
		for _, n := range r.nodes {
			n.kill()
		}
	})
}
