package saebft

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
)

// Node is one replica of a multi-process deployment — agreement, execution,
// or firewall filter — run in this process and communicating over TCP with
// the rest of the deployment described by its Config. The saebft-node
// command is a thin wrapper around it.
type Node struct {
	cfg         *Config
	id          types.NodeID
	role        types.Role
	logf        func(string, ...interface{})
	tls         linkTLS
	metricsAddr string
	// opts is the config's lowering plus this process's own settings
	// (storage, verify workers, observability), which the Node* options
	// write straight into it.
	opts core.Options

	mu        sync.Mutex
	running   *runningNode
	ops       *obs.OpsServer
	watchStop chan struct{}
	closed    bool
}

// NodeOption configures NewNode.
type NodeOption func(*Node)

// NodeDataDir enables durable storage for the node: its write-ahead log and
// stable checkpoints live under <path>/node-<id>, Start recovers from them,
// and Close flushes them — so a deployment whose every process is killed
// and restarted over the same directories resumes without losing an
// acknowledged operation. The path is per-process state and deliberately
// not part of the shared config file.
func NodeDataDir(path string) NodeOption {
	return func(n *Node) { n.opts.DataDir = path }
}

// NodeVolatileVotes disables agreement-side voting-state durability for a
// durable node, with the same semantics (and the same caveat) as
// StorageConfig.VolatileVotes: fewer WAL syncs, but this replica counts
// against f while it recovers under a Byzantine primary. No effect without
// NodeDataDir.
func NodeVolatileVotes() NodeOption {
	return func(n *Node) { n.opts.VolatileVotes = true }
}

// NodeTLS overrides where this node reads its mutual-TLS material from:
// the cluster CA certificate plus this identity's certificate and key, all
// PEM. Without this option a config carrying a TLS section (saebft-keygen
// -tls / Config.GenerateTLS) is used automatically; with it, TLS is enabled
// even if the config has no TLS section.
func NodeTLS(caFile, certFile, keyFile string) NodeOption {
	return func(n *Node) { n.tls.ca, n.tls.cert, n.tls.key = caFile, certFile, keyFile }
}

// NodeInsecure forces plaintext links even when the config prescribes TLS.
// Loopback debugging only: a plaintext node cannot talk to TLS peers.
func NodeInsecure() NodeOption {
	return func(n *Node) { n.tls.insecure = true }
}

// NodeVerifyWorkers sizes this process's bounded certificate-verification
// pool, the deployment-side analogue of CryptoConfig.VerifyWorkers: batch
// certificate checks (client requests in a pre-prepare, order and commit
// certificates) fan out across n workers and join before any protocol state
// advances. Per-process tuning, not protocol surface — peers need not
// agree. 0 or 1 verifies inline.
func NodeVerifyWorkers(n int) NodeOption {
	return func(nd *Node) { nd.opts.VerifyWorkers = n }
}

// NodeMetricsAddr serves the node's ops HTTP endpoint on addr once Start
// succeeds: Prometheus text on /metrics, the per-operation trace ring on
// /debug/trace, and the standard pprof handlers under /debug/pprof/. Pass
// "127.0.0.1:0" to let the kernel pick a port (Node.OpsAddr reports it).
// The endpoint is operational surface, not protocol surface — bind it to
// an address the deployment's operators can reach, never the public one.
func NodeMetricsAddr(addr string) NodeOption {
	return func(n *Node) { n.metricsAddr = addr }
}

// LinkStats snapshots the node's cumulative transport link counters
// (zero value before Start). docs/DEPLOYMENT.md's troubleshooting section
// is keyed to these.
func (n *Node) LinkStats() LinkStats {
	n.mu.Lock()
	rn := n.running
	n.mu.Unlock()
	var s LinkStats
	if rn != nil {
		s.add(rn.net.Stats())
	}
	return s
}

// Secure reports whether the node's links run over mutual TLS (false before
// Start).
func (n *Node) Secure() bool {
	n.mu.Lock()
	rn := n.running
	n.mu.Unlock()
	return rn != nil && rn.net.Secure()
}

// NewNode validates that id names a non-client identity in the config's
// topology and prepares the node. It does not listen until Start.
func NewNode(cfg *Config, id int, opts ...NodeOption) (*Node, error) {
	top, err := cfg.topology()
	if err != nil {
		return nil, err
	}
	role, _, ok := top.RoleOf(types.NodeID(id))
	if !ok {
		return nil, fmt.Errorf("saebft: node %d is not part of the topology", id)
	}
	if role == types.RoleClient {
		return nil, fmt.Errorf("saebft: identity %d is a client; use Dial", id)
	}
	copts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	copts.Obs = obs.NewRegistry()
	copts.Trace = obs.NewTracer(obs.DefaultTraceCap)
	n := &Node{cfg: cfg, id: types.NodeID(id), role: role, opts: copts}
	for _, fn := range opts {
		fn(n)
	}
	return n, nil
}

// SetLogf installs a transport-level log function. By default connection
// events are silenced; call before Start.
func (n *Node) SetLogf(f func(string, ...interface{})) { n.logf = f }

// Start brings the node up: it derives its share of the key material,
// binds its listener, and begins serving. If ctx is cancelable, its
// cancellation closes the node.
func (n *Node) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if n.running != nil {
		return errors.New("saebft: node already started")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b, err := core.NewBuilder(n.opts)
	if err != nil {
		return err
	}
	sec, err := n.tls.security(n.cfg, n.id)
	if err != nil {
		return err
	}
	rn, err := startNode(b, n.cfg.addrMap(), n.id, transport.TCPOptions{Security: sec})
	if err != nil {
		return err
	}
	if n.metricsAddr != "" {
		srv, err := obs.ServeOps(n.metricsAddr, n.opts.Obs, n.opts.Trace)
		if err != nil {
			rn.close()
			return fmt.Errorf("saebft: ops endpoint: %w", err)
		}
		n.ops = srv
	}
	rn.net.SetLogf(logfOrSilent(n.logf))
	n.running = rn
	if ctx.Done() != nil {
		stop := make(chan struct{})
		n.watchStop = stop
		go func() {
			select {
			case <-ctx.Done():
				n.Close()
			case <-stop:
			}
		}()
	}
	return nil
}

// Close shuts the node down. Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	rn := n.running
	ops := n.ops
	n.ops = nil
	stop := n.watchStop
	n.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	ops.Close() // nil-safe; stops serving before the node goes away
	if rn != nil {
		rn.close()
	}
	return nil
}

// ID returns the node's identity.
func (n *Node) ID() int { return int(n.id) }

// Role returns "agreement", "execution", or "filter".
func (n *Node) Role() string { return n.role.String() }

// Addr returns the node's bound listen address once started.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running == nil {
		return ""
	}
	return n.running.net.Addr()
}

// StorageErr reports the node's first durable-storage failure, if any. A
// replica whose store fails stops executing (fail-stop) while keeping its
// sockets open; operators should poll this (saebft-node does) and treat
// non-nil as the node being down.
func (n *Node) StorageErr() error {
	n.mu.Lock()
	rn := n.running
	n.mu.Unlock()
	if rn == nil {
		return nil
	}
	var err error
	rn.inspect(func(node transport.Node) {
		if se, ok := node.(interface{ StorageErr() error }); ok {
			err = se.StorageErr()
		}
	})
	return err
}

// DialOption configures Dial.
type DialOption func(*dialConfig)

type dialConfig struct {
	ids     []int
	timeout time.Duration
	batch   clientBatching
	tls     linkTLS
}

// DialClients restricts the handle to specific client identities from the
// config (default: all of them, giving the widest pipeline).
func DialClients(ids ...int) DialOption {
	return func(d *dialConfig) { d.ids = ids }
}

// DialTimeout sets the default per-request timeout (default 30s).
func DialTimeout(t time.Duration) DialOption {
	return func(d *dialConfig) { d.timeout = t }
}

// DialBatching enables client-side operation batching on the dialed
// handle, with the same semantics and defaults as WithClientBatching.
func DialBatching(maxOps, maxBytes int, flushInterval time.Duration) DialOption {
	return func(d *dialConfig) {
		d.batch.enabled = true
		d.batch.maxOps = maxOps
		d.batch.maxBytes = maxBytes
		d.batch.flush = flushInterval
	}
}

// DialTLS overrides where the handle reads its mutual-TLS material from:
// the cluster CA certificate plus one client identity's certificate and
// key, all PEM. Valid only together with DialClients naming that single
// identity; multi-identity handles read per-identity pairs from the
// config's certDir automatically, which is the default whenever the config
// carries a TLS section.
func DialTLS(caFile, certFile, keyFile string) DialOption {
	return func(d *dialConfig) { d.tls.ca, d.tls.cert, d.tls.key = caFile, certFile, keyFile }
}

// DialInsecure forces plaintext links even when the config prescribes TLS.
// Loopback debugging only: a plaintext client cannot talk to TLS nodes.
func DialInsecure() DialOption {
	return func(d *dialConfig) { d.tls.insecure = true }
}

// Dial connects a client handle to a running multi-process deployment
// described by the config file at target — the one surface every tool and
// embedder dials through. The handle pipelines one in-flight request per
// client identity it owns; use DialClients to pick identities when several
// handles share a config. Use DialConfig when the deployment descriptor is
// already loaded (or built in memory).
func Dial(target string, optfns ...DialOption) (*Client, error) {
	cfg, err := LoadConfig(target)
	if err != nil {
		return nil, err
	}
	return DialConfig(cfg, optfns...)
}

// DialConfig is Dial for an already-loaded deployment config.
func DialConfig(cfg *Config, optfns ...DialOption) (*Client, error) {
	var dc dialConfig
	for _, fn := range optfns {
		fn(&dc)
	}
	if dc.timeout == 0 {
		dc.timeout = 30 * time.Second
	}
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	b, err := core.NewBuilder(opts)
	if err != nil {
		return nil, err
	}
	addrs := cfg.addrMap()
	ids := dc.ids
	if len(ids) == 0 {
		for _, cid := range b.Top.Clients {
			ids = append(ids, int(cid))
		}
	}
	if dc.tls.cert != "" && len(ids) != 1 {
		return nil, fmt.Errorf("saebft: DialTLS names one identity's certificate; use DialClients to pick that identity (handle owns %d)", len(ids))
	}
	// The handle gets its own registry: client-side pipeline/read counters
	// plus each endpoint's link series, mirroring what a cluster-owned
	// handle sees (minus the server-side layers, which live in other
	// processes and serve their own /metrics).
	reg := obs.NewRegistry()
	rt := &tcpRuntime{quit: make(chan struct{})}
	for _, id := range ids {
		role, _, ok := b.Top.RoleOf(types.NodeID(id))
		if !ok || role != types.RoleClient {
			rt.close()
			return nil, fmt.Errorf("saebft: %d is not a client identity in this topology", id)
		}
		sec, err := dc.tls.security(cfg, types.NodeID(id))
		if err != nil {
			rt.close()
			return nil, err
		}
		ep, err := newTCPEndpoint(b, addrs, types.NodeID(id), nil, transport.TCPOptions{
			Security: sec, Obs: reg, ObsNode: strconv.Itoa(id),
		})
		if err != nil {
			rt.close()
			return nil, fmt.Errorf("saebft: connecting client %d: %w", id, err)
		}
		rt.eps = append(rt.eps, ep)
	}
	h := newDialedClient(rt, len(rt.eps), dc.timeout)
	h.reg = reg
	h.registerClientObs(reg)
	if dc.batch.enabled {
		h.startBatching(dc.batch)
	}
	return h, nil
}
