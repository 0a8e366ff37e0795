package core

import (
	"fmt"
	"path/filepath"
	"strconv"

	"repro/internal/auth"
	"repro/internal/execnode"
	"repro/internal/firewall"
	"repro/internal/mqueue"
	"repro/internal/obs"
	"repro/internal/pbft"
	"repro/internal/replycert"
	"repro/internal/seal"
	"repro/internal/sm"
	"repro/internal/storage"
	"repro/internal/threshold"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Builder constructs individual nodes of a deployment. BuildSim uses it to
// assemble a simulated cluster; the saebft package uses it to run each node
// over TCP, in its own OS process in a real deployment, with identical key
// material derived from the shared seed.
type Builder struct {
	Opts Options
	Top  *types.Topology
	Mat  *Material
}

// NewBuilder validates options and derives topology plus key material.
func NewBuilder(opts Options) (*Builder, error) {
	opts.fillDefaults()
	if opts.App == nil {
		return nil, fmt.Errorf("core: Options.App factory is required")
	}
	top := BuildTopology(opts.F, opts.G, opts.H, opts.Clients, opts.Mode)
	if err := top.Validate(); err != nil {
		return nil, err
	}
	bits := 0
	if opts.ReplyMode == replycert.ModeThreshold || opts.Mode == ModeFirewall {
		bits = opts.ThresholdBits
	}
	mat, err := NewMaterial(opts.Seed, top, bits)
	if err != nil {
		return nil, err
	}
	return &Builder{Opts: opts, Top: top, Mat: mat}, nil
}

func (b *Builder) clientAuth(id types.NodeID) auth.Scheme {
	if b.Opts.MACRequests {
		return b.Mat.MACScheme(id, b.Top.AllNodes())
	}
	return b.Mat.SigScheme(id)
}

func (b *Builder) orderAuth(id types.NodeID) auth.Scheme {
	if b.Opts.MACOrders {
		return b.Mat.MACScheme(id, b.Top.AllNodes())
	}
	return b.Mat.SigScheme(id)
}

func (b *Builder) replyAuth(id types.NodeID) auth.Scheme {
	if b.Opts.ReplyMode == replycert.ModeQuorum {
		return b.Mat.MACScheme(id, b.Top.AllNodes())
	}
	return nil
}

// readAuth backs both halves of the certified-read hop, the client's probe
// and each executor's answer, with MAC keys shared between each client and
// each executor alone. A read certificate convinces only the client that
// asked and is never forwarded, so pairwise MACs suffice.
func (b *Builder) readAuth(id types.NodeID) auth.Scheme {
	if role, _, _ := b.Top.RoleOf(id); role == types.RoleExecution {
		return b.Mat.MACScheme(id, b.Top.Clients)
	}
	return b.Mat.MACScheme(id, b.Top.Execution)
}

// replicaAuth selects the scheme backing the three-phase agreement votes:
// pairwise MAC vectors under MACAgreement (the hot-path fast mode), Ed25519
// otherwise. Either way the scheme is instrumented with per-scheme
// sign/verify latency histograms when a registry is configured.
func (b *Builder) replicaAuth(id types.NodeID) auth.Scheme {
	if b.Opts.MACAgreement {
		return auth.Instrument(b.Mat.MACScheme(id, b.Top.Agreement), b.Opts.Obs, "mac", id)
	}
	return auth.Instrument(b.Mat.SigScheme(id), b.Opts.Obs, "ed25519", id)
}

// transferAuth is always a signature scheme: it backs the certificates that
// are shown beyond their original destinations (view changes, new views,
// checkpoint proofs), which MAC vectors cannot authenticate.
func (b *Builder) transferAuth(id types.NodeID) auth.TransferScheme {
	return auth.InstrumentTransfer(b.Mat.SigScheme(id), b.Opts.Obs, "ed25519", id)
}

// nodeStore opens (or builds via the injected factory) the durable store
// for one node identity; (nil, nil) when persistence is not configured.
func (b *Builder) nodeStore(id types.NodeID) (storage.Store, error) {
	if b.Opts.Storage != nil {
		return b.Opts.Storage(id)
	}
	if b.Opts.DataDir == "" {
		return nil, nil
	}
	dir := filepath.Join(b.Opts.DataDir, fmt.Sprintf("node-%d", id))
	sopts := b.Opts.StorageOptions
	if sopts.Obs == nil {
		sopts.Obs = b.Opts.Obs
		sopts.ObsNode = fmt.Sprintf("%d", id)
	}
	return storage.Open(dir, sopts)
}

func (b *Builder) verifier(id types.NodeID) *replycert.Verifier {
	if b.Opts.Mode == ModeBASE {
		return replycert.NewVerifierFor(replycert.ModeQuorum, b.Top.F()+1, b.Top.Agreement, b.replyAuth(id), nil)
	}
	return replycert.NewVerifier(b.Opts.ReplyMode, b.Top, b.replyAuth(id), b.Mat.ThresholdPub)
}

// AgreementNode builds one agreement replica (engine + queue, or engine +
// coupled execution replica in BASE mode). The returned transport.Node is
// what the network must drive; engine and queue expose introspection (queue
// is nil in BASE mode).
func (b *Builder) AgreementNode(id types.NodeID, send transport.Sender) (transport.Node, *pbft.Replica, *mqueue.Queue, error) {
	store, err := b.nodeStore(id)
	if err != nil {
		return nil, nil, nil, err
	}
	closeStore := func() {
		if store != nil {
			store.Close()
		}
	}
	var app pbft.App
	var queue *mqueue.Queue
	if b.Opts.Mode == ModeBASE {
		// Each agreement replica executes what it orders and answers the
		// clients itself; its engine's log and checkpoints make it durable.
		app, err = execnode.New(execnode.Config{
			ID:                   id,
			Topology:             b.Top,
			ReplyAuth:            b.replyAuth(id),
			ReplyMode:            b.Opts.ReplyMode,
			DirectReplyToClients: true,
			Obs:                  b.Opts.Obs,
			Trace:                b.Opts.Trace,
		}, b.Opts.App(), send)
	} else {
		dests := b.Top.Execution
		if b.Opts.Mode == ModeFirewall {
			dests = b.Top.Filters[0]
		}
		queue, err = mqueue.New(mqueue.Config{
			ID:        id,
			Topology:  b.Top,
			OrderAuth: b.orderAuth(id),
			Verifier:  b.verifier(id),
			Dests:     dests,
			Pipeline:  b.Opts.Pipeline,
		}, b.countProofRequests(id, send))
		app = queue
	}
	if err != nil {
		closeStore()
		return nil, nil, nil, err
	}
	engine, err := pbft.New(pbft.Config{
		ID:                 id,
		Topology:           b.Top,
		ReplicaAuth:        b.replicaAuth(id),
		TransferAuth:       b.transferAuth(id),
		ClientAuth:         b.clientAuth(id),
		BatchSize:          b.Opts.BatchSize,
		BatchBytes:         b.Opts.BatchBytes,
		BatchWait:          b.Opts.BatchWait,
		CheckpointInterval: b.Opts.CheckpointInterval,
		WindowSize:         b.Opts.WindowSize,
		RequestTimeout:     b.Opts.RequestTimeout,
		Store:              store,
		VolatileVotes:      b.Opts.VolatileVotes,
		Obs:                b.Opts.Obs,
		Trace:              b.Opts.Trace,
	}, app, send)
	if err != nil {
		closeStore()
		return nil, nil, nil, err
	}
	if err := engine.Recover(0); err != nil {
		closeStore()
		return nil, nil, nil, fmt.Errorf("core: recovering agreement replica %v: %w", id, err)
	}
	if queue == nil {
		return engine, engine, nil, nil
	}
	return &AgreementNode{ID: id, Engine: engine, Queue: queue}, engine, queue, nil
}

// ExecNode builds one execution replica hosting a fresh application
// instance.
func (b *Builder) ExecNode(id types.NodeID, send transport.Sender) (*execnode.Replica, sm.StateMachine, error) {
	if b.Opts.Mode == ModeBASE {
		return nil, nil, fmt.Errorf("core: BASE mode has no execution replicas")
	}
	var seals map[types.NodeID]*seal.Sealer
	if b.Opts.Mode == ModeFirewall {
		seals = make(map[types.NodeID]*seal.Sealer, len(b.Top.Clients))
		for _, cid := range b.Top.Clients {
			s, err := b.Mat.Sealer(cid)
			if err != nil {
				return nil, nil, err
			}
			seals[cid] = s
		}
	}
	replyDests := b.Top.Agreement
	if b.Opts.Mode == ModeFirewall {
		replyDests = b.Top.Filters[b.Top.H()]
	}
	store, err := b.nodeStore(id)
	if err != nil {
		return nil, nil, err
	}
	closeStore := func() {
		if store != nil {
			store.Close()
		}
	}
	app := b.Opts.App()
	ex, err := execnode.New(execnode.Config{
		ID:                   id,
		Topology:             b.Top,
		OrderAuth:            b.orderAuth(id),
		ReplyAuth:            b.replyAuth(id),
		ExecAuth:             b.Mat.SigScheme(id),
		ReadAuth:             b.readAuth(id),
		ReplyMode:            b.Opts.ReplyMode,
		ThresholdShare:       b.Mat.ThresholdShare(id),
		ShareRand:            threshold.NewSeededReader(fmt.Sprintf("%s-share-%d", b.Opts.Seed, id)),
		ReplyDests:           replyDests,
		DirectReplyToClients: b.Opts.DirectReply && b.Opts.Mode != ModeFirewall,
		Seals:                seals,
		Pipeline:             b.Opts.Pipeline,
		CheckpointInterval:   b.Opts.CheckpointInterval,
		Store:                store,
		Obs:                  b.Opts.Obs,
		Trace:                b.Opts.Trace,
	}, app, send)
	if err != nil {
		closeStore()
		return nil, nil, err
	}
	if err := ex.Recover(0); err != nil {
		closeStore()
		return nil, nil, fmt.Errorf("core: recovering execution replica %v: %w", id, err)
	}
	return ex, app, nil
}

// FilterNode builds one privacy-firewall filter.
func (b *Builder) FilterNode(id types.NodeID, send transport.Sender) (*firewall.Filter, error) {
	if b.Opts.Mode != ModeFirewall {
		return nil, fmt.Errorf("core: filters exist only in firewall mode")
	}
	row := b.Top.FilterRowOf(id)
	if row < 0 {
		return nil, fmt.Errorf("core: %v is not a filter", id)
	}
	h := b.Top.H()
	col := -1
	for i, f := range b.Top.Filters[row] {
		if f == id {
			col = i
		}
	}
	var up, down []types.NodeID
	if row == h {
		up = b.Top.Execution
	} else {
		up = []types.NodeID{b.Top.Filters[row+1][col]}
	}
	if row == 0 {
		down = b.Top.Agreement
	} else {
		down = b.Top.Filters[row-1]
	}
	return firewall.New(firewall.Config{
		ID:             id,
		Topology:       b.Top,
		Row:            row,
		UpTargets:      up,
		DownTargets:    down,
		Verifier:       replycert.NewVerifier(replycert.ModeThreshold, b.Top, nil, b.Mat.ThresholdPub),
		TopRow:         row == h,
		Pipeline:       b.Opts.Pipeline,
		OrderedRelease: b.Opts.OrderedRelease,
	}, b.countProofRequests(id, send))
}

// countProofRequests wraps a combiner's sender (message queue or filter) so
// the share-proof requests it sends executors are counted in the registry.
// Quorum replies have no proofs to request, and without a registry there is
// nothing to count: then it returns send unchanged.
func (b *Builder) countProofRequests(id types.NodeID, send transport.Sender) transport.Sender {
	if b.Opts.ReplyMode != replycert.ModeThreshold {
		return send
	}
	sent := b.Opts.Obs.Counter("saebft_share_proof_requests_total",
		"threshold share proof requests sent to executors after a failed combination",
		obs.L("node", strconv.Itoa(int(id))))
	if sent == nil {
		return send
	}
	return func(to types.NodeID, data []byte) {
		if len(data) > 0 && wire.MsgType(data[0]) == wire.TProofRequest {
			sent.Inc()
		}
		send(to, data)
	}
}

// ClientNode builds one client.
func (b *Builder) ClientNode(id types.NodeID, send transport.Sender) (*Client, error) {
	var sl *seal.Sealer
	if b.Opts.Mode == ModeFirewall {
		var err error
		sl, err = b.Mat.Sealer(id)
		if err != nil {
			return nil, err
		}
	}
	// The certified read path needs execution replicas to probe and
	// plaintext bodies to match on: BASE mode has neither replicas nor a
	// separate execution cluster, and firewall mode seals bodies and severs
	// the client↔exec channel. Both fall back to full agreement for reads.
	var rv *replycert.ReadVerifier
	if b.Opts.Mode != ModeBASE && b.Opts.Mode != ModeFirewall {
		rv = replycert.NewReadVerifier(b.Top, b.readAuth(id))
	}
	return NewClient(ClientConfig{
		ID:              id,
		Topology:        b.Top,
		Scheme:          b.clientAuth(id),
		Verifier:        b.verifier(id),
		Sealer:          sl,
		RetransmitAfter: b.Opts.ClientRetransmit,
		ReadVerifier:    rv,
	}, send), nil
}
