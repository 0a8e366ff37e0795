package saebft

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sm"
	"repro/internal/storage"
	"repro/internal/types"
)

// options accumulates the functional-option state for NewCluster.
type options struct {
	mode          Mode
	replyMode     ReplyMode
	f, g, h       int
	clients       int
	appName       string
	appFactory    func() sm.StateMachine
	batchSize     int
	batchWait     time.Duration
	clientBatch   clientBatching
	crypto        CryptoConfig
	thresholdBits int
	ckptInterval  int
	storage       StorageConfig
	seed          string
	netSeed       int64
	invokeTimeout time.Duration
	transport     Transport
	tls           TLSConfig
	metricsAddr   string

	// obsReg and obsTrace are built by fillDefaults and shared by every
	// layer of the cluster.
	obsReg   *obs.Registry
	obsTrace *obs.Tracer
}

// Option configures NewCluster.
type Option func(*options)

// WithMode selects the replication architecture. Default: ModeSeparate.
func WithMode(m Mode) Option { return func(o *options) { o.mode = m } }

// WithFaults sets the tolerated fault counts: f for agreement (3f+1
// replicas), g for execution (2g+1), h for the firewall ((h+1)² filters,
// firewall mode only). Zero values keep the defaults (1,1,1).
func WithFaults(f, g, h int) Option {
	return func(o *options) { o.f, o.g, o.h = f, g, h }
}

// WithClients sets how many logical paper-model clients back the handle
// returned by Cluster.Client. Each logical client keeps one request
// outstanding (§2), so this is the handle's maximum pipelining depth.
// Default: 4.
func WithClients(n int) Option { return func(o *options) { o.clients = n } }

// WithApp selects a registered application by name ("kv", "counter",
// "nfs", "null", or anything added via RegisterApp). Default: "kv".
func WithApp(name string) Option { return func(o *options) { o.appName = name } }

// WithAppFactory supplies a custom state-machine factory directly; the
// factory is called once per hosting replica. Overrides WithApp.
func WithAppFactory(f func() StateMachine) Option {
	return func(o *options) {
		if f == nil {
			o.appFactory = nil
			return
		}
		o.appFactory = func() sm.StateMachine { return f() }
	}
}

// WithReplyMode selects the reply-certificate scheme. Default: quorum
// (forced to threshold in firewall mode, quorum in BASE mode).
func WithReplyMode(r ReplyMode) Option {
	return func(o *options) { o.replyMode = r }
}

// WithBatching sets the agreement batch size and the maximum wait to fill a
// batch before ordering it anyway. A batch that holds a request from every
// client is ordered at once (each client has one request outstanding, so
// no other can join it): the wait bounds only batches some client has not
// joined. Zero values keep the defaults (16 requests, 2ms).
func WithBatching(size int, wait time.Duration) Option {
	return func(o *options) { o.batchSize = size; o.batchWait = wait }
}

// WithClientBatching turns on client-side operation batching: concurrent
// Invoke/InvokeAsync calls on the cluster's handle are coalesced into
// multi-op requests of at most maxOps operations or maxBytes of bodies,
// and a partial batch is flushed after flushInterval. One agreement slot,
// one execution, and one reply certificate then amortize over the whole
// batch. A single operation larger than maxBytes passes through on its
// own. Zero values take the defaults (16 ops, 1 MiB, 200µs).
//
// Batching changes throughput, not semantics: every operation still gets
// its own certified reply, and unrelated operations never see each other.
func WithClientBatching(maxOps, maxBytes int, flushInterval time.Duration) Option {
	return func(o *options) {
		o.clientBatch.enabled = true
		o.clientBatch.maxOps = maxOps
		o.clientBatch.maxBytes = maxBytes
		o.clientBatch.flush = flushInterval
	}
}

// WithAdaptivePipeline toggles the latency-driven controller that widens
// and narrows how many batches the handle keeps in flight (between 1 and
// WithClients). On by default when client batching is enabled; turning it
// off pins the dispatch width to WithClients. No effect without
// WithClientBatching.
func WithAdaptivePipeline(on bool) Option {
	return func(o *options) {
		o.clientBatch.adaptive = on
		o.clientBatch.adaptSet = true
	}
}

// CryptoMode selects how agreement-cluster votes are authenticated.
type CryptoMode int

const (
	// CryptoEd25519 (the default) signs every agreement vote. Slowest,
	// but every message is transferable and independently auditable.
	CryptoEd25519 CryptoMode = iota
	// CryptoMAC authenticates the three-phase votes (pre-prepare, prepare,
	// commit) with pairwise-MAC authenticator vectors — the Castro-Liskov
	// fast path for the traffic that dominates the hot loop. View changes,
	// new views, and checkpoint-stability proofs remain Ed25519-signed
	// regardless: those certificates are shown to parties beyond their
	// original destinations, which MAC vectors cannot support (the type
	// system enforces the split; see auth.TransferScheme). Trade-off: a
	// Byzantine replica can craft a vector whose slots verify for some
	// receivers and not others, which costs at most liveness (an extra
	// view change), never safety.
	CryptoMAC
)

// CryptoConfig selects how the agreement cluster authenticates its votes.
type CryptoConfig struct {
	// Mode selects signature or MAC authentication for agreement votes.
	Mode CryptoMode
}

// WithCrypto configures agreement-vote authentication. The zero config
// signs every vote with Ed25519.
func WithCrypto(c CryptoConfig) Option { return func(o *options) { o.crypto = c } }

// WithThresholdBits sizes the threshold-RSA modulus. Small keys (512) keep
// tests fast; benchmarks use 1024+. Zero keeps the default.
func WithThresholdBits(bits int) Option { return func(o *options) { o.thresholdBits = bits } }

// WithCheckpointInterval sets how many sequence numbers pass between
// protocol checkpoints in both clusters. Smaller intervals mean tighter
// recovery points (and more frequent fsyncs of checkpoint files) at the
// cost of more checkpoint traffic. Zero keeps the default (64).
func WithCheckpointInterval(n int) Option { return func(o *options) { o.ckptInterval = n } }

// FsyncPolicy selects when durable-storage writes reach stable media.
type FsyncPolicy int

const (
	// FsyncBatched (the default) groups all WAL records of one delivery
	// burst under a single fsync, issued before any of the burst's
	// replies leave the node — durability at amortized cost.
	FsyncBatched FsyncPolicy = iota
	// FsyncEveryRecord fsyncs each appended record individually.
	FsyncEveryRecord
	// FsyncNone never forces media writes: state survives process
	// restarts (the OS page cache persists) but not power loss.
	// Benchmark use.
	FsyncNone
)

// StorageConfig configures the durable storage subsystem: a per-node
// segmented write-ahead log plus an atomic checkpoint store under
// <DataDir>/node-<id>. A cluster started over a directory written by a
// previous incarnation recovers: each node restores its newest stable
// checkpoint (after re-verifying the stored quorum attestations), replays
// its WAL tail through the normal execute path, and catches up from peers
// for anything newer — so even kill -9 of every node at once loses no
// acknowledged operation.
type StorageConfig struct {
	// DataDir roots the per-node stores. Required; the zero config
	// disables storage.
	DataDir string
	// SegmentBytes rotates WAL segments at this size (default 4 MiB).
	SegmentBytes int
	// RetainCheckpoints keeps the newest K stable checkpoints per node
	// (default 2).
	RetainCheckpoints int
	// Fsync selects the media-write policy (default FsyncBatched).
	Fsync FsyncPolicy
	// VolatileVotes disables agreement-side voting-state durability. By
	// default agreement replicas log (and sync) every pre-prepare,
	// prepare, commit, prepared certificate, and view transition before
	// sending the corresponding message, so even a single replica that
	// crashes and restarts under a simultaneously-Byzantine primary can
	// never be induced to send a conflicting vote, and recovers into the
	// correct view with its prepared evidence intact. Turning this on
	// trades that guarantee for fewer WAL syncs (committed batches and
	// checkpoints stay durable; full-cluster restarts stay safe).
	// Benchmark use.
	VolatileVotes bool
}

// WithStorage enables durable storage for every node the cluster runs in
// this process. See StorageConfig; WithDataDir is the common shorthand.
func WithStorage(cfg StorageConfig) Option { return func(o *options) { o.storage = cfg } }

// WithDataDir enables durable storage with default tuning: every node
// persists its write-ahead log and stable checkpoints under
// <path>/node-<id>, and Start recovers from them after a restart.
func WithDataDir(path string) Option {
	return func(o *options) { o.storage = StorageConfig{DataDir: path} }
}

// WithSeed sets the deterministic key-material seed (and, on the simulated
// transport, the network schedule seed via its low bits).
func WithSeed(seed string) Option { return func(o *options) { o.seed = seed } }

// WithNetSeed sets the simulated network's schedule seed independently of
// the key-material seed.
func WithNetSeed(seed int64) Option { return func(o *options) { o.netSeed = seed } }

// WithInvokeTimeout sets the per-request timeout. On the simulated
// transport the duration is interpreted in virtual time. A context deadline
// bounds a call separately (on the wall clock) and does not shorten this
// timeout. Default: 30s.
func WithInvokeTimeout(d time.Duration) Option {
	return func(o *options) { o.invokeTimeout = d }
}

// WithTransport selects how the cluster's nodes communicate. Default:
// SimTransport().
func WithTransport(t Transport) Option { return func(o *options) { o.transport = t } }

// WithMetricsAddr serves the cluster's ops HTTP endpoint on addr once
// Start succeeds: Prometheus text on /metrics, the per-operation trace
// ring on /debug/trace, and the standard pprof handlers under
// /debug/pprof/. Pass "127.0.0.1:0" to let the kernel pick a port
// (Cluster.OpsAddr reports it).
func WithMetricsAddr(addr string) Option { return func(o *options) { o.metricsAddr = addr } }

func (o *options) fillDefaults() {
	if o.clients == 0 {
		o.clients = 4
	}
	if o.invokeTimeout == 0 {
		o.invokeTimeout = 30 * time.Second
	}
	if o.transport == nil {
		o.transport = SimTransport()
	}
	if o.appName == "" {
		o.appName = "kv"
	}
	o.obsReg = obs.NewRegistry()
	o.obsTrace = obs.NewTracer(obs.DefaultTraceCap)
}

// coreOptions lowers the public options to the internal composition layer.
func (o *options) coreOptions() (core.Options, error) {
	app := o.appFactory
	if app == nil {
		f, err := appFactory(o.appName)
		if err != nil {
			return core.Options{}, err
		}
		app = f
	}
	opts := core.Options{
		F:                  o.f,
		G:                  o.g,
		H:                  o.h,
		Clients:            o.clients,
		Mode:               o.mode.coreMode(),
		ReplyMode:          o.replyMode.coreMode(),
		MACAgreement:       o.crypto.Mode == CryptoMAC,
		BatchSize:          o.batchSize,
		BatchWait:          types.Time(o.batchWait.Nanoseconds()),
		CheckpointInterval: types.SeqNum(o.ckptInterval),
		ThresholdBits:      o.thresholdBits,
		Seed:               o.seed,
		NetSeed:            o.netSeed,
		App:                app,
		Obs:                o.obsReg,
		Trace:              o.obsTrace,
	}
	if o.storage.DataDir != "" {
		opts.DataDir = o.storage.DataDir
		opts.StorageOptions = o.storage.lower()
		opts.VolatileVotes = o.storage.VolatileVotes
	}
	return opts, nil
}

// lower converts the public storage knobs to the internal options.
func (c StorageConfig) lower() storage.Options {
	opts := storage.Options{
		SegmentBytes:      c.SegmentBytes,
		RetainCheckpoints: c.RetainCheckpoints,
	}
	switch c.Fsync {
	case FsyncEveryRecord:
		opts.Fsync = storage.FsyncAlways
	case FsyncNone:
		opts.Fsync = storage.FsyncNever
	default:
		opts.Fsync = storage.FsyncBatch
	}
	return opts
}
