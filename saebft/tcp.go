package saebft

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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
		if err := r.startClient(b, addrs, cid, to, t.cfg.Logf); err != nil {
			r.close()
			return nil, fmt.Errorf("saebft: starting client endpoint %v: %w", cid, err)
		}
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

// runningNode is one live TCP-backed node: an agreement, execution, or
// filter replica, or a logical client's endpoint.
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
	return serveTCP(id, addrs, topts, func(send transport.Sender) (node transport.Node, err error) {
		switch role {
		case types.RoleAgreement:
			node, _, _, err = b.AgreementNode(id, send)
		case types.RoleExecution:
			node, _, err = b.ExecNode(id, send)
		case types.RoleFilter:
			node, err = b.FilterNode(id, send)
		default:
			err = fmt.Errorf("saebft: identity %v is a client; use Dial", id)
		}
		return node, err
	})
}

// serveTCP binds identity id's TCP endpoint and drives the node build
// makes (given the endpoint's sender) from its own runtime goroutine.
func serveTCP(id types.NodeID, addrs map[types.NodeID]string, topts transport.TCPOptions, build func(transport.Sender) (transport.Node, error)) (*runningNode, error) {
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
	node, err := build(tcp.Send)
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

// tcpRuntime serves calls through logical clients that each run as their
// own TCP node. When it also owns server nodes (in-process TCP cluster) it
// tears them down on close; a dialed handle against an external deployment
// runs only its clients.
type tcpRuntime struct {
	endpoints
	nodes []*runningNode // replicas, then client endpoints
	quit  chan struct{}
	once  sync.Once
}

// startClient runs logical client id over TCP as the runtime's next
// endpoint.
func (r *tcpRuntime) startClient(b *core.Builder, addrs map[types.NodeID]string, id types.NodeID, topts transport.TCPOptions, logf func(string, ...interface{})) error {
	var ep *endpoint
	n, err := serveTCP(id, addrs, topts, func(send transport.Sender) (transport.Node, error) {
		cl, err := b.ClientNode(id, send)
		if err != nil {
			return nil, err
		}
		// Identities may be reused by later processes (CLI tools,
		// restarted embedders); wall-clock timestamps keep this
		// incarnation's requests above any predecessor's in the
		// executors' exactly-once reply table.
		cl.SetTimestamp(types.Timestamp(time.Now().UnixNano()))
		ep = newEndpoint(cl, r.quit, new(int))
		return ep, nil
	})
	if err != nil {
		return err
	}
	n.net.SetLogf(logfOrSilent(logf))
	ep.do = n.runtime.Do
	r.nodes = append(r.nodes, n)
	r.endpoints = append(r.endpoints, ep)
	return nil
}

// stats folds every node's protocol counters (on its runtime goroutine)
// and link counters. Both public stats surfaces — Client.Stats on a dialed
// handle and Cluster.Stats on an owned cluster — come through here; a
// dialed handle runs no replicas and reports zero for their counters.
func (r *tcpRuntime) stats() (Stats, error) {
	var s Stats
	for _, n := range r.nodes {
		select {
		case <-r.quit:
			return Stats{}, ErrClosed
		default:
		}
		n.inspect(s.addNode)
		s.Link.add(n.net.Stats())
	}
	return s, nil
}

func (r *tcpRuntime) close() error {
	r.once.Do(func() {
		close(r.quit)
		for _, n := range r.nodes {
			n.close() // graceful: flushes each replica's durable store
		}
	})
	return nil
}

// kill tears the runtime down without flushing durable stores, simulating a
// whole-process crash (recovery tests only).
func (r *tcpRuntime) kill() {
	r.once.Do(func() {
		close(r.quit)
		for _, n := range r.nodes {
			n.kill()
		}
	})
}
