package core

import (
	"fmt"

	"repro/internal/execnode"
	"repro/internal/firewall"
	"repro/internal/mqueue"
	"repro/internal/obs"
	"repro/internal/pbft"
	"repro/internal/replycert"
	"repro/internal/sm"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Options selects a deployment configuration. The zero value plus an App
// factory yields the paper's default small deployment: f=g=h=1, separate
// architecture, MAC-quorum replies.
type Options struct {
	F, G, H int // fault thresholds per cluster
	Clients int

	Mode      Mode
	ReplyMode replycert.Mode

	// MACRequests authenticates client requests with MAC vectors instead
	// of signatures; MACOrders does the same for agreement-certificate
	// pieces sent to executors.
	MACRequests bool
	MACOrders   bool
	// MACAgreement authenticates the three-phase agreement votes
	// (pre-prepare, prepare, commit) with MAC vectors — the Castro-Liskov
	// fast path for the traffic that dominates the hot loop. View changes,
	// new views, and checkpoint-stability proofs always stay transferably
	// signed regardless of this knob: the pbft.Config.TransferAuth type
	// forbids MAC vectors there.
	MACAgreement bool

	// VerifyWorkers sizes the bounded pool that batch attestation checks
	// (client request certificates, order/commit certificates) fan out
	// over. 0 or 1 verifies inline; the pool always joins before protocol
	// state advances, so parallelism never perturbs determinism.
	VerifyWorkers int

	// DirectReply lets executors send reply shares straight to clients
	// (§3.1.3 optimization; ignored — forced off — behind the firewall).
	DirectReply bool

	BatchSize          int
	BatchBytes         int
	Pipeline           int
	CheckpointInterval types.SeqNum
	WindowSize         types.SeqNum
	RequestTimeout     types.Time
	BatchWait          types.Time
	ClientRetransmit   types.Time

	// ThresholdBits sizes the threshold RSA modulus (512 keeps tests
	// fast; benchmarks use 1024+).
	ThresholdBits int

	// OrderedRelease enables the §4.3 covert-channel restriction at every
	// filter: replies flow down in sequence-number order (held replies
	// time out after 50ms to preserve liveness across null-batch gaps).
	OrderedRelease bool

	Seed    string // key-material seed
	NetSeed int64
	Net     transport.SimNetConfig // optional overrides (Seed wins from NetSeed)

	// DataDir, when set, makes every node built by this process durable:
	// each gets a write-ahead log and checkpoint store rooted at
	// <DataDir>/node-<id>, and recovery runs during construction, so a
	// cluster restarted from the same directory resumes from its newest
	// stable checkpoint plus WAL tail. Empty keeps nodes in-memory.
	DataDir string

	// Storage overrides DataDir with a custom per-node store factory
	// (tests inject failing or observing stores through it). A factory
	// returning (nil, nil) leaves that node in-memory.
	Storage storage.Factory

	// StorageOptions tunes segment size, checkpoint retention, and the
	// fsync policy of DataDir-opened stores.
	StorageOptions storage.Options

	// VolatileVotes disables agreement-side vote/view durability (the
	// per-slot vote markers, prepared certificates, and view transitions
	// pbft logs and syncs before externalizing the corresponding
	// messages), reverting to committed-state-only persistence: cheaper,
	// but a replica recovering under a simultaneously-Byzantine primary
	// must again be counted against f until rejoined. Benchmark use. No
	// effect without DataDir/Storage.
	VolatileVotes bool

	// Obs, when non-nil, receives metrics from every node this builder
	// constructs (each series carries a node="<id>" label, so one shared
	// registry serves a whole in-process cluster). Trace, when non-nil,
	// receives per-operation lifecycle spans from the protocol cores.
	// Both are write-only inside the deterministic packages; see
	// internal/obs.
	Obs   *obs.Registry
	Trace *obs.Tracer

	// App builds one state machine instance per hosting replica.
	App func() sm.StateMachine
}

func (o *Options) fillDefaults() {
	if o.F == 0 {
		o.F = 1
	}
	if o.G == 0 {
		o.G = 1
	}
	if o.H == 0 {
		o.H = 1
	}
	if o.Clients == 0 {
		o.Clients = 1
	}
	// Zero batching, pipeline, checkpoint and window knobs pass through:
	// pbft, mqueue, execnode and firewall each own their default.
	if o.ThresholdBits == 0 {
		o.ThresholdBits = 512
	}
	if o.Seed == "" {
		o.Seed = "saebft"
	}
	if o.Mode == ModeFirewall {
		// The firewall's covert-channel elimination requires
		// deterministic, membership-free certificates and sealed bodies.
		o.ReplyMode = replycert.ModeThreshold
		o.DirectReply = false
	}
	if o.Mode == ModeBASE {
		o.ReplyMode = replycert.ModeQuorum
	}
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	Opts      Options
	Top       *types.Topology
	Net       *transport.SimNet
	Material  *Material
	Agreement map[types.NodeID]*AgreementNode
	Engines   map[types.NodeID]*pbft.Replica
	Queues    map[types.NodeID]*mqueue.Queue
	Execs     map[types.NodeID]*execnode.Replica
	Filters   map[types.NodeID]*firewall.Filter
	Clients   []*Client
	ExecApps  map[types.NodeID]sm.StateMachine
}

// BuildSim constructs a simulated cluster in the requested configuration.
func BuildSim(opts Options) (*Cluster, error) {
	b, err := NewBuilder(opts)
	if err != nil {
		return nil, err
	}
	return BuildSimFrom(b)
}

// BuildSimFrom constructs a simulated cluster from an already-prepared
// builder, reusing its derived topology and key material (deriving
// threshold keys is the expensive part of construction).
func BuildSimFrom(b *Builder) (*Cluster, error) {
	netCfg := b.Opts.Net
	if netCfg.Seed == 0 {
		netCfg.Seed = b.Opts.NetSeed
	}
	net := transport.NewSimNet(netCfg)
	c := &Cluster{
		Opts:      b.Opts,
		Top:       b.Top,
		Net:       net,
		Material:  b.Mat,
		Agreement: make(map[types.NodeID]*AgreementNode),
		Engines:   make(map[types.NodeID]*pbft.Replica),
		Queues:    make(map[types.NodeID]*mqueue.Queue),
		Execs:     make(map[types.NodeID]*execnode.Replica),
		Filters:   make(map[types.NodeID]*firewall.Filter),
		ExecApps:  make(map[types.NodeID]sm.StateMachine),
	}
	if b.Opts.Mode == ModeFirewall {
		net.Restrict(FirewallWiring(b.Top))
	}
	for _, id := range b.Top.Agreement {
		node, engine, queue, err := b.AgreementNode(id, net.Bind(id))
		if err != nil {
			return nil, err
		}
		c.Engines[id] = engine
		if queue != nil {
			c.Queues[id] = queue
			c.Agreement[id] = node.(*AgreementNode)
		}
		net.Register(id, node)
	}
	if b.Opts.Mode != ModeBASE {
		for _, id := range b.Top.Execution {
			ex, app, err := b.ExecNode(id, net.Bind(id))
			if err != nil {
				return nil, err
			}
			// Read replies ride the auxiliary randomness plane: serving a
			// read must not consume primary-plane randomness draws, or the
			// mere presence of read traffic would reshuffle the delivery
			// schedule of agreement traffic between otherwise-identical runs.
			ex.SetReadSender(net.BindAux(id))
			c.Execs[id] = ex
			c.ExecApps[id] = app
			net.Register(id, ex)
		}
	}
	if b.Opts.Mode == ModeFirewall {
		for _, row := range b.Top.Filters {
			for _, id := range row {
				fl, err := b.FilterNode(id, net.Bind(id))
				if err != nil {
					return nil, err
				}
				c.Filters[id] = fl
				net.Register(id, fl)
			}
		}
	}
	for _, cid := range b.Top.Clients {
		cl, err := b.ClientNode(cid, net.Bind(cid))
		if err != nil {
			return nil, err
		}
		// Read probes, like read replies, stay on the auxiliary plane.
		cl.SetReadSender(net.BindAux(cid))
		c.Clients = append(c.Clients, cl)
		net.Register(cid, cl)
	}
	return c, nil
}

// FirewallWiring returns the physical-topology predicate of Figure 2(c):
// clients reach only the agreement cluster; filters connect only to adjacent
// rows; executors talk only to the top row and each other. Confidential
// state cannot reach a client except through every filter row.
func FirewallWiring(top *types.Topology) func(from, to types.NodeID) bool {
	h := top.H()
	return func(from, to types.NodeID) bool {
		fr, _, ok1 := top.RoleOf(from)
		tr, _, ok2 := top.RoleOf(to)
		if !ok1 || !ok2 {
			return false
		}
		switch {
		case fr == types.RoleClient && tr == types.RoleAgreement,
			fr == types.RoleAgreement && tr == types.RoleClient:
			return true
		case fr == types.RoleAgreement && tr == types.RoleAgreement:
			return true
		case fr == types.RoleExecution && tr == types.RoleExecution:
			return true
		case fr == types.RoleAgreement && tr == types.RoleFilter:
			return top.FilterRowOf(to) == 0
		case fr == types.RoleFilter && tr == types.RoleAgreement:
			return top.FilterRowOf(from) == 0
		case fr == types.RoleFilter && tr == types.RoleFilter:
			ra, rb := top.FilterRowOf(from), top.FilterRowOf(to)
			return ra-rb == 1 || rb-ra == 1
		case fr == types.RoleFilter && tr == types.RoleExecution:
			return top.FilterRowOf(from) == h
		case fr == types.RoleExecution && tr == types.RoleFilter:
			return top.FilterRowOf(to) == h
		default:
			return false
		}
	}
}

// Invoke submits op from the given client and runs the simulation until the
// reply certificate arrives or the timeout elapses.
func (c *Cluster) Invoke(client int, op []byte, timeout types.Time) ([]byte, error) {
	cl := c.Clients[client]
	if err := cl.Submit(op, c.Net.Now()); err != nil {
		return nil, err
	}
	if !c.Net.RunUntil(cl.HasResult, c.Net.Now()+timeout) {
		return nil, fmt.Errorf("core: request timed out after %d ns", timeout)
	}
	r, _ := cl.Result()
	return r, nil
}

// ReadCertified issues a certified-read probe from the given client and runs
// the simulation until it completes or the timeout elapses. On a quorum
// mismatch the returned error wraps replycert.ErrReadMismatch and the hint
// reports the floor to retry at.
func (c *Cluster) ReadCertified(client int, op []byte, floor types.SeqNum, timeout types.Time) (*replycert.ReadResult, types.SeqNum, error) {
	cl := c.Clients[client]
	if err := cl.SubmitRead(op, floor, c.Net.Now()); err != nil {
		return nil, 0, err
	}
	if !c.Net.RunUntil(cl.ReadDone, c.Net.Now()+timeout) {
		cl.CancelRead()
		return nil, 0, fmt.Errorf("core: read timed out after %d ns", timeout)
	}
	out, _ := cl.TakeReadOutcome()
	return out.Result, out.Hint, out.Err
}

// Shutdown flushes and closes every node's durable store (graceful-exit
// path). No-op for in-memory clusters. The caller must have quiesced the
// simulation: nodes are not driven afterwards.
func (c *Cluster) Shutdown() {
	for _, e := range c.Engines {
		e.Shutdown()
	}
	for _, ex := range c.Execs {
		ex.Shutdown()
	}
}

// Kill abandons every node's durable store without flushing, releasing
// file handles and directory locks the way process death would (crash
// tests). No-op for in-memory clusters.
func (c *Cluster) Kill() {
	for _, e := range c.Engines {
		e.CrashStop()
	}
	for _, ex := range c.Execs {
		ex.CrashStop()
	}
}

// CrashAgreement crashes agreement replica i.
func (c *Cluster) CrashAgreement(i int) { c.Net.Crash(c.Top.Agreement[i]) }

// CrashExec crashes execution replica i.
func (c *Cluster) CrashExec(i int) { c.Net.Crash(c.Top.Execution[i]) }

// CrashFilter crashes the filter at (row, col).
func (c *Cluster) CrashFilter(row, col int) { c.Net.Crash(c.Top.Filters[row][col]) }
