// Package pbft implements the Byzantine agreement substrate the paper builds
// on: a PBFT/BASE-style replicated state machine engine with request
// batching, the three-phase pre-prepare/prepare/commit protocol, stable
// checkpoints with garbage collection, view changes with transferable
// proofs, status-gossip catch-up, and oblivious nondeterminism agreement
// (§3.1.4, §3.2).
//
// The paper treats the BASE library as an opaque agreement module whose
// local "state machine" is a message queue (internal/mqueue); this package
// is that module, built from scratch. It can equally run an application
// state machine directly, which is how the traditional coupled
// agreement+execution baseline (Figure 1a) is reproduced for comparison.
//
// A Replica is a deterministic, single-threaded core: it is driven only by
// Receive and Tick, emits messages through the Sender it was built with, and
// never blocks or spawns goroutines. All timers are deadline fields checked
// in Tick.
package pbft

import (
	"fmt"
	"sort"

	"repro/internal/auth"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// App consumes the total order the agreement cluster produces. In the
// paper's architecture the App is the replicated message queue; in the
// coupled baseline it executes requests directly.
type App interface {
	// Execute delivers the batch bound to sequence number n. It is called
	// exactly once per n, in order.
	Execute(v types.View, n types.SeqNum, nd types.NonDet, reqs []wire.Request, now types.Time)

	// ResendReply handles a client retransmission of an already-ordered
	// request (the paper's retryHint). It reports false if the app has no
	// cached reply and no pending work for the request, in which case the
	// engine re-proposes the request under a fresh sequence number.
	ResendReply(req *wire.Request, now types.Time) bool

	// Sync asks the app to quiesce into a checkpointable state for
	// sequence n (the paper's msgQueue.sync()). The app invokes done —
	// possibly later, after its pipeline drains — with a digest and
	// serialized copy of its state. The engine does not execute past n
	// until done fires.
	Sync(n types.SeqNum, done func(digest types.Digest, payload []byte))

	// Restore replaces the app state with a checkpoint produced by Sync
	// on another replica (used during state transfer).
	Restore(n types.SeqNum, digest types.Digest, payload []byte) error

	// Busy reports whether the app wants backpressure (pipeline full).
	// While busy, the engine neither proposes nor executes new batches.
	Busy(now types.Time) bool
}

// Config parameterizes a Replica.
type Config struct {
	ID       types.NodeID
	Topology *types.Topology

	// ReplicaAuth signs/verifies the three-phase agreement votes
	// (pre-prepare, prepare, commit). These certificates never leave the
	// agreement cluster's destination set, so MAC authenticator vectors —
	// the paper's fast path — are as safe as signatures here, and a MAC
	// scheme may be wired in (core's MACAgreement mode does).
	ReplicaAuth auth.Scheme
	// TransferAuth signs/verifies the certificates that are shown to
	// parties beyond their original destinations: view changes, new views,
	// and checkpoint proofs of stability. The type requires a transferable
	// (signature) scheme, so MAC vectors cannot be wired here even by
	// mistake. Nil defaults to ReplicaAuth when — and only when —
	// ReplicaAuth is itself transferable.
	TransferAuth auth.TransferScheme
	// ClientAuth verifies client request certificates (MAC or signature).
	ClientAuth auth.Scheme
	// Verify, when non-nil, fans batch attestation checks (client request
	// certificates in pre-prepares, commit-proof vote sets) out across a
	// bounded worker pool. Results join before any handler proceeds, so
	// protocol state stays a pure function of inputs. Nil verifies inline.
	Verify *auth.VerifyPool

	BatchSize  int // max requests per batch (paper's bundle size)
	BatchBytes int // max request-body bytes per batch (multi-op requests can be large)
	// BatchWait bounds how long the primary holds a partial batch. A batch
	// that holds a request from every client in the topology is proposed at
	// once — each client has one request outstanding (§2), so nothing else
	// can join it — so the wait bounds only batches some client has not
	// joined.
	BatchWait          types.Time
	CheckpointInterval types.SeqNum
	WindowSize         types.SeqNum // high-watermark distance (must be > CheckpointInterval)
	RequestTimeout     types.Time   // backup's suspicion timeout triggering view change
	ViewChangeResend   types.Time   // retransmission interval for view-change messages
	StatusInterval     types.Time   // progress-gossip period
	MaxTimeSkew        types.Timestamp

	// OnCommitted, if set, is invoked whenever a batch commits locally
	// (before execution). Tests use it to observe protocol progress.
	OnCommitted func(v types.View, n types.SeqNum)

	// Store, when non-nil, makes the replica durable: committed batches
	// are appended to its WAL as transferable commit certificates (and
	// synced before execution externalizes them), stable checkpoints are
	// persisted with their 2f+1 votes, and Recover restores both after a
	// restart. Nil keeps the seed's in-memory behavior.
	//
	// Voting state is durable too (unless VolatileVotes): every
	// pre-prepare proposal/acceptance, sent prepare, sent commit, prepared
	// certificate, and view transition is appended and synced before the
	// corresponding message leaves the node. A replica that crashes
	// mid-agreement therefore restarts remembering every vote it may have
	// sent: it refuses to send a conflicting vote for any slot it already
	// voted on (so a simultaneously-Byzantine primary cannot induce it to
	// equivocate), recovers into the view it was in — mid-campaign
	// included — and its prepared evidence still feeds view changes. A
	// recovered replica rejoins through the ordinary catch-up protocol
	// without counting against f.
	Store storage.Store

	// Obs, when non-nil, receives this replica's metrics (see
	// internal/obs). The replica only writes instruments — the
	// simdeterminism analyzer forbids read-side calls — so observability
	// never feeds back into protocol state. Trace, when non-nil, receives
	// lifecycle spans stamped with the protocol clock.
	Obs   *obs.Registry
	Trace *obs.Tracer

	// VolatileVotes reverts to committed-state-only durability: per-slot
	// votes, prepared certificates, and view transitions are not logged
	// (saving one WAL sync per vote message). A replica recovering under
	// a simultaneously-Byzantine primary must then be counted against f
	// until it has rejoined; full-cluster restarts remain safe. Benchmark
	// use. No effect without Store.
	VolatileVotes bool
}

func (c *Config) fillDefaults() {
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = 256 << 10
	}
	if c.BatchWait == 0 {
		c.BatchWait = types.Millisecond(2)
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 64
	}
	if c.WindowSize == 0 {
		c.WindowSize = 2 * c.CheckpointInterval
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = types.Millisecond(500)
	}
	if c.ViewChangeResend == 0 {
		c.ViewChangeResend = types.Millisecond(300)
	}
	if c.StatusInterval == 0 {
		c.StatusInterval = types.Millisecond(50)
	}
	if c.MaxTimeSkew == 0 {
		c.MaxTimeSkew = types.Timestamp(10_000_000_000) // 10s in ns
	}
}

// vote is one replica's prepare or commit attestation together with the
// order digest it covers; votes can arrive before the pre-prepare, so the
// digest must be remembered and matched later.
type vote struct {
	od  types.Digest
	att auth.Attestation
}

// instance tracks one sequence number's progress through the three phases.
type instance struct {
	view      types.View
	seq       types.SeqNum
	od        types.Digest
	pp        *wire.PrePrepare
	prepares  map[types.NodeID]vote // backups' prepare votes
	commits   map[types.NodeID]vote
	prepared  bool
	committed bool
	executed  bool

	// Phase timestamps (protocol clock) for latency histograms; zero when
	// the instance was recreated across a view migration.
	acceptedAt  types.Time
	preparedAt  types.Time
	committedAt types.Time
}

// commitAtts collects the attestations that vouch for this instance's
// ordered digest in replica-ID order, so a commit certificate serializes
// to the same bytes on every replica that holds the same votes.
func (in *instance) commitAtts() []auth.Attestation {
	ids := make([]types.NodeID, 0, len(in.commits))
	for id, v := range in.commits {
		if v.od == in.od {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	atts := make([]auth.Attestation, 0, len(ids))
	for _, id := range ids {
		atts = append(atts, in.commits[id].att)
	}
	return atts
}

// savedCheckpoint is a locally-produced checkpoint kept for serving peers.
type savedCheckpoint struct {
	digest  types.Digest
	payload []byte
}

// votedSlot remembers the strongest vote this replica has sent for one
// sequence number across all views — and, via the WAL, across crashes. It
// is the re-vote guard: the replica never sends a vote for the same slot
// and view with a different digest, and never votes in an older view.
type votedSlot struct {
	view  types.View
	od    types.Digest
	phase wire.VotePhase
}

// clientState tracks per-client dedup and retry bookkeeping.
//
// lastOrdered is the fast dedup gate: it advances as soon as a pre-prepare
// covering the request is accepted (even in a view that later fails — over-
// advancing only routes duplicates through the retryHint path, which falls
// back to re-proposal). lastExecuted advances only when the request
// executes; being a deterministic function of the executed log, it is what
// checkpoints carry and state transfer restores.
type clientState struct {
	lastOrdered  types.Timestamp
	lastExecuted types.Timestamp
	pending      *wire.Request // buffered request not yet ordered
	pendingSince types.Time    // for the backup suspicion timer
	queued       int           // primary: this client's requests in Replica.queue
}

// outMsg is one transmission deferred until the current delivery burst's
// group commit (see beginBurst/endBurst).
type outMsg struct {
	to    types.NodeID
	bcast bool
	data  []byte
}

// Replica is one agreement-cluster member.
type Replica struct {
	cfg  Config
	xmit transport.Sender // raw transmitter; all sends funnel through send/broadcast
	app  App
	top  *types.Topology
	f    int
	n    int
	idx  int // own index in the agreement cluster

	// certAuth is ReplicaAuth with this replica's own attestations trusted
	// unconditionally. Relayed certificates (commit proofs, prepared
	// evidence, re-proposed pre-prepares in a NEW-VIEW) legitimately carry
	// the validator's own vote, and MAC vectors hold no self slot — see
	// auth.SelfTrust. Live vote handlers keep the raw scheme.
	certAuth auth.Scheme

	view         types.View
	inViewChange bool
	nextSeq      types.SeqNum // primary only: next sequence number to assign
	lastExec     types.SeqNum
	lastStable   types.SeqNum
	stableProof  []wire.AgreeCheckpoint

	insts      map[types.SeqNum]*instance
	clients    map[types.NodeID]*clientState
	queue      []*wire.Request // primary: requests awaiting proposal
	queued     map[types.Digest]bool
	queueBytes int             // sum of queued request-body sizes
	queuedFrom int             // distinct clients with a request in queue
	ndClock    types.Timestamp // last nondeterministic timestamp accepted/proposed

	// checkpointing
	syncing       bool
	syncSeq       types.SeqNum
	ckptVotes     map[types.SeqNum]map[types.NodeID]wire.AgreeCheckpoint
	ckptLocal     map[types.SeqNum]savedCheckpoint
	fetchingSeq   types.SeqNum
	fetchDeadline types.Time
	executing     bool       // reentrancy guard for executeReady
	now           types.Time // last observed time, for async callbacks

	// durability
	recovering bool  // suppresses re-logging while replaying the WAL
	storeErr   error // first storage failure; halts execution (fail-stop)
	voted      map[types.SeqNum]votedSlot
	loggedView types.View // last view transition written to the WAL
	loggedVC   bool       // ... and whether it was a campaign start

	// group commit: while a delivery burst is open, syncVotes defers the
	// real fsync and sends queue in the outbox; endBurst performs one sync
	// for the whole burst before releasing any queued transmission, so the
	// durability-before-externalization contract holds with fewer fsyncs.
	burstDepth    int
	outbox        []outMsg
	walDirty      bool // appended records not yet covered by a Store.Sync
	deferredSyncs int  // syncVotes calls absorbed by the burst's group commit

	// view change state (viewchange.go)
	vcs           map[types.View]map[types.NodeID]*wire.ViewChange
	sentVC        *wire.ViewChange
	vcDeadline    types.Time
	vcAttempts    int
	lastNewView   *wire.NewView
	earlyPP       map[types.SeqNum]*wire.PrePrepare // new view's pre-prepares that overtook its NEW-VIEW
	batchDeadline types.Time

	statusDeadline types.Time

	// observability (write-only from this package; see obs.go)
	om        metrics
	trace     *obs.Tracer
	ckptBegan types.Time // when the in-flight checkpoint sync started
	vcBegan   types.Time // when the current view-change campaign started

	// Metrics counts externally observable progress for tests/benches.
	Metrics Metrics
}

// Metrics aggregates counters exposed for tests and benchmarks.
type Metrics struct {
	Batches     uint64
	Requests    uint64
	ViewChanges uint64
	Checkpoints uint64
}

// New constructs a replica. send transmits to agreement-cluster peers and is
// also used to answer catch-up requests; app receives the total order.
func New(cfg Config, app App, send transport.Sender) (*Replica, error) {
	cfg.fillDefaults()
	top := cfg.Topology
	if top == nil {
		return nil, fmt.Errorf("pbft: nil topology")
	}
	role, idx, ok := top.RoleOf(cfg.ID)
	if !ok || role != types.RoleAgreement {
		return nil, fmt.Errorf("pbft: %v is not an agreement replica", cfg.ID)
	}
	if cfg.WindowSize <= cfg.CheckpointInterval {
		return nil, fmt.Errorf("pbft: window %d must exceed checkpoint interval %d", cfg.WindowSize, cfg.CheckpointInterval)
	}
	if cfg.TransferAuth == nil {
		ts, ok := cfg.ReplicaAuth.(auth.TransferScheme)
		if !ok {
			return nil, fmt.Errorf("pbft: Config.TransferAuth is required when ReplicaAuth is not transferable (MACs cannot back view-change or checkpoint certificates)")
		}
		cfg.TransferAuth = ts
	}
	r := &Replica{
		cfg:       cfg,
		xmit:      send,
		app:       app,
		certAuth:  auth.SelfTrust(cfg.ReplicaAuth, cfg.ID),
		top:       top,
		f:         top.F(),
		n:         len(top.Agreement),
		idx:       idx,
		insts:     make(map[types.SeqNum]*instance),
		clients:   make(map[types.NodeID]*clientState),
		voted:     make(map[types.SeqNum]votedSlot),
		queued:    make(map[types.Digest]bool),
		ckptVotes: make(map[types.SeqNum]map[types.NodeID]wire.AgreeCheckpoint),
		ckptLocal: make(map[types.SeqNum]savedCheckpoint),
		vcs:       make(map[types.View]map[types.NodeID]*wire.ViewChange),
		om:        newPBFTMetrics(cfg.Obs, cfg.ID),
		trace:     cfg.Trace,
	}
	return r, nil
}

// View returns the current view.
func (r *Replica) View() types.View { return r.view }

// LastExecuted returns the highest executed sequence number.
func (r *Replica) LastExecuted() types.SeqNum { return r.lastExec }

// LastStable returns the latest stable checkpoint sequence number.
func (r *Replica) LastStable() types.SeqNum { return r.lastStable }

// InViewChange reports whether the replica is between views.
func (r *Replica) InViewChange() bool { return r.inViewChange }

// StorageErr reports the first storage failure, if any. A replica whose
// store fails stops executing (fail-stop) rather than acting on undurable
// commits; the cluster masks it like any other fault.
func (r *Replica) StorageErr() error { return r.storeErr }

// isPrimary reports whether this replica leads the current view.
func (r *Replica) isPrimary() bool { return r.top.PrimaryIndex(r.view) == r.idx }

func (r *Replica) primaryID() types.NodeID { return r.top.Primary(r.view) }

func (r *Replica) inWindow(n types.SeqNum) bool {
	return n > r.lastStable && n <= r.lastStable+r.cfg.WindowSize
}

// send transmits to one peer, or queues the transmission until the burst's
// group commit when a delivery burst is open.
func (r *Replica) send(to types.NodeID, data []byte) {
	if r.burstDepth > 0 {
		r.outbox = append(r.outbox, outMsg{to: to, data: data})
		return
	}
	r.xmit(to, data)
}

// broadcast sends to every other agreement replica (or queues the fan-out,
// as one outbox entry, until the burst's group commit).
func (r *Replica) broadcast(data []byte) {
	if r.burstDepth > 0 {
		r.outbox = append(r.outbox, outMsg{bcast: true, data: data})
		return
	}
	for _, id := range r.top.Agreement {
		if id != r.cfg.ID {
			r.xmit(id, data)
		}
	}
}

// beginBurst opens a delivery burst: until the matching endBurst, syncVotes
// calls defer to one group-commit fsync and sends queue in the outbox.
func (r *Replica) beginBurst() { r.burstDepth++ }

// endBurst closes a delivery burst. When the outermost burst closes, any
// deferred vote/view records are made durable with a single Store.Sync and
// only then are the queued transmissions released, in FIFO order. If the
// sync fails the replica fail-stops and every queued send is dropped — no
// message externalizing undurable state ever leaves the node.
func (r *Replica) endBurst() {
	r.burstDepth--
	if r.burstDepth > 0 {
		return
	}
	saved := r.deferredSyncs
	r.deferredSyncs = 0
	if r.walDirty {
		saved-- // the group commit below is a real sync
		if !r.syncNow() {
			r.outbox = r.outbox[:0]
			r.om.fsyncsSaved.Add(uint64(max(saved, 0)))
			return
		}
	}
	if saved > 0 {
		r.om.fsyncsSaved.Add(uint64(saved))
	}
	out := r.outbox
	r.outbox = r.outbox[:0]
	for i := range out {
		m := &out[i]
		if m.bcast {
			for _, id := range r.top.Agreement {
				if id != r.cfg.ID {
					r.xmit(id, m.data)
				}
			}
		} else {
			r.xmit(m.to, m.data)
		}
		m.data = nil // release the payload; the backing array is reused
	}
}

func (r *Replica) inst(v types.View, n types.SeqNum) *instance {
	in := r.insts[n]
	if in == nil || in.view != v {
		in = &instance{
			view:     v,
			seq:      n,
			prepares: make(map[types.NodeID]vote),
			commits:  make(map[types.NodeID]vote),
		}
		r.insts[n] = in
	}
	return in
}

// peek returns the instance at (v, n) if one exists, creating nothing.
func (r *Replica) peek(v types.View, n types.SeqNum) *instance {
	if in := r.insts[n]; in != nil && in.view == v {
		return in
	}
	return nil
}

// holds reports whether votes already records id's vote for od.
func holds(votes map[types.NodeID]vote, id types.NodeID, od types.Digest) bool {
	held, ok := votes[id]
	return ok && held.od == od
}

// --- durable voting state -----------------------------------------------------

// voteWAL reports whether voting state must be written through the WAL.
func (r *Replica) voteWAL() bool {
	return r.cfg.Store != nil && !r.recovering && !r.cfg.VolatileVotes
}

// mayVote reports whether sending a vote for od at (v, n) is consistent
// with every vote this replica has ever sent for n — including votes from
// pre-crash incarnations restored from the WAL. conflict reports a
// same-view digest mismatch, which is proof the view's primary equivocated
// (possibly across this replica's crash).
func (r *Replica) mayVote(v types.View, n types.SeqNum, od types.Digest) (ok, conflict bool) {
	prev, voted := r.voted[n]
	if !voted {
		return true, false
	}
	if v < prev.view {
		return false, false // never regress to voting in an older view
	}
	if v == prev.view && prev.od != od {
		return false, true
	}
	return true, false
}

// logVote records a vote in the in-memory table and, when durable voting is
// on, appends it to the WAL. It reports whether the caller may proceed to
// externalize the vote; a storage failure halts the replica (fail-stop)
// rather than letting it send promises it cannot remember.
func (r *Replica) logVote(v types.View, n types.SeqNum, od types.Digest, phase wire.VotePhase) bool {
	prev, ok := r.voted[n]
	if !ok || v > prev.view || (v == prev.view && phase > prev.phase) {
		r.voted[n] = votedSlot{view: v, od: od, phase: phase}
	}
	if !r.voteWAL() {
		return true
	}
	if r.storeErr != nil {
		return false
	}
	rec := wire.EncodeVoteRecord(wire.VoteRecord{View: v, Seq: n, OD: od, Phase: phase})
	if err := r.cfg.Store.Append(storage.RecVote, n, rec); err != nil {
		r.storeErr = err
		return false
	}
	r.walDirty = true
	return true
}

// logPrepared appends the slot's prepared certificate so a post-crash
// VIEW-CHANGE still carries the evidence that the batch prepared here.
func (r *Replica) logPrepared(in *instance) bool {
	if !r.voteWAL() {
		return true
	}
	if r.storeErr != nil {
		return false
	}
	ent := r.preparedEntry(in)
	if ent == nil {
		return false // cannot happen for a slot that just prepared
	}
	if err := r.cfg.Store.Append(storage.RecPrepared, in.seq, wire.EncodePreparedRecord(ent)); err != nil {
		r.storeErr = err
		return false
	}
	r.walDirty = true
	return true
}

// logView appends a view transition. Transitions are logged with
// seq = stable watermark + 1 so the replay cursor (seq > stable) keeps
// them; persistStable re-logs the current state above each new stable
// checkpoint before pruning can discard the old record.
func (r *Replica) logView(v types.View, inChange bool) bool {
	if !r.voteWAL() {
		return true
	}
	if r.storeErr != nil {
		return false
	}
	if v == r.loggedView && inChange == r.loggedVC {
		return true // already durable; avoid duplicate records
	}
	rec := wire.EncodeViewRecord(wire.ViewRecord{View: v, InChange: inChange})
	if err := r.cfg.Store.Append(storage.RecView, r.lastStable+1, rec); err != nil {
		r.storeErr = err
		return false
	}
	r.walDirty = true
	r.loggedView, r.loggedVC = v, inChange
	return true
}

// logNewView appends the installed NEW-VIEW message so a restarted replica
// keeps re-serving it to lagging peers: without the record, a primary that
// crashed after installing view v could never retransmit NEW-VIEW(v), and a
// straggler stuck in an older view would stall until yet another view
// change. Like view records it is logged at stable watermark + 1 so the
// replay cursor keeps it, and persistStable re-logs it above each new
// watermark before pruning. Nil or stale messages are a no-op.
func (r *Replica) logNewView(m *wire.NewView) bool {
	if m == nil || m.View != r.view || !r.voteWAL() {
		return true
	}
	if r.storeErr != nil {
		return false
	}
	if err := r.cfg.Store.Append(storage.RecNewView, r.lastStable+1, wire.Marshal(m)); err != nil {
		r.storeErr = err
		return false
	}
	r.walDirty = true
	return true
}

// syncVotes makes pending vote/view records durable before the message
// they cover is externalized. One call covers every append since the last
// sync, so a handler that logs several votes pays one sync. Inside a
// delivery burst the fsync is deferred: the matching sends are queued in
// the outbox too, and endBurst's single group commit syncs before any of
// them leave the node, so deferring never weakens the durability contract.
func (r *Replica) syncVotes() bool {
	if !r.voteWAL() {
		return true
	}
	if r.storeErr != nil {
		return false
	}
	if r.burstDepth > 0 {
		if r.walDirty {
			r.deferredSyncs++
		}
		return true
	}
	return r.syncNow()
}

// syncNow performs the real fsync, unconditionally.
func (r *Replica) syncNow() bool {
	if err := r.cfg.Store.Sync(); err != nil {
		r.storeErr = err
		return false
	}
	r.walDirty = false
	return true
}

// preparedEntry assembles the transferable prepared certificate for an
// instance: its pre-prepare evidence plus 2f matching backup prepares
// (deterministically the lowest replica ids). Nil if the instance does not
// hold enough evidence.
func (r *Replica) preparedEntry(in *instance) *wire.PreparedEntry {
	if in.pp == nil {
		return nil
	}
	primary := r.top.Primary(in.view)
	ids := make([]types.NodeID, 0, len(in.prepares))
	for id, v := range in.prepares {
		if id != primary && v.od == in.od {
			ids = append(ids, id)
		}
	}
	if len(ids) < 2*r.f {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	prepares := make([]auth.Attestation, 0, 2*r.f)
	for _, id := range ids[:2*r.f] {
		prepares = append(prepares, in.prepares[id].att)
	}
	return &wire.PreparedEntry{
		View:       in.view,
		Seq:        in.seq,
		ND:         in.pp.ND,
		Requests:   in.pp.Requests,
		PrimaryAtt: in.pp.Att,
		Prepares:   prepares,
	}
}

// Deliver implements transport.Node.
func (r *Replica) Deliver(from types.NodeID, data []byte, now types.Time) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	r.Receive(from, msg, now)
}

// Receive dispatches one decoded message. Each delivery is one burst: every
// vote the handler logs rides a single group-commit fsync, performed before
// any message the handler produced is released to the network.
func (r *Replica) Receive(from types.NodeID, msg wire.Message, now types.Time) {
	if now > r.now {
		r.now = now
	}
	r.beginBurst()
	defer r.endBurst()
	switch m := msg.(type) {
	case *wire.Request:
		r.onRequest(m, now)
	case *wire.PrePrepare:
		r.onPrePrepare(m, now)
	case *wire.Prepare:
		r.onPrepare(m, now)
	case *wire.Commit:
		r.onCommit(m, now)
	case *wire.AgreeCheckpoint:
		r.onCheckpoint(m, now)
	case *wire.ViewChange:
		r.onViewChange(m, now)
	case *wire.NewView:
		r.onNewView(m, now)
	case *wire.Status:
		r.onStatus(m, now)
	case *wire.CommitProof:
		r.onCommitProof(m, now)
	case *wire.CheckpointFetch:
		r.onCheckpointFetch(m, from, now)
	case *wire.CheckpointData:
		r.onCheckpointData(m, now)
	case *wire.ExecReply, *wire.ReplyCert:
		// Reply traffic belongs to the message queue (core wires it
		// there); the engine ignores it.
	}
}

// --- client requests --------------------------------------------------------

func (r *Replica) client(id types.NodeID) *clientState {
	cs := r.clients[id]
	if cs == nil {
		cs = &clientState{}
		r.clients[id] = cs
	}
	return cs
}

func (r *Replica) onRequest(m *wire.Request, now types.Time) {
	if role, _, ok := r.top.RoleOf(m.Client); !ok || role != types.RoleClient {
		return
	}
	if err := r.cfg.ClientAuth.Verify(auth.KindRequest, m.Digest(), m.Att); err != nil {
		return
	}
	cs := r.client(m.Client)
	if m.Timestamp <= cs.lastOrdered {
		// Already ordered: hand to the app's retry path; if the app can
		// neither answer nor retry it, re-propose under a new sequence
		// number (§3.2.1 retryHint).
		if !r.app.ResendReply(m, now) {
			r.enqueue(m, now)
			r.maybePropose(now)
		}
		return
	}
	r.enqueue(m, now)
	r.maybePropose(now)
}

func (r *Replica) enqueue(m *wire.Request, now types.Time) {
	cs := r.client(m.Client)
	if cs.pending == nil || m.Timestamp > cs.pending.Timestamp {
		cs.pending = m
		cs.pendingSince = now
	}
	if r.isPrimary() {
		d := m.Digest()
		if !r.queued[d] {
			r.queued[d] = true
			r.queue = append(r.queue, m)
			r.queueBytes += len(m.Op)
			if cs.queued++; cs.queued == 1 {
				r.queuedFrom++
			}
			if r.batchDeadline == 0 {
				r.batchDeadline = now + r.cfg.BatchWait
			}
			r.om.queueDepth.Set(int64(len(r.queue)))
			r.span(now, obs.StageSubmit, 0, fmt.Sprintf("client=%d ts=%d", m.Client, m.Timestamp))
		}
		return
	}
	// Backup: relay to the primary and let the suspicion timer run; if
	// the primary never orders it, a view change follows.
	r.send(r.primaryID(), wire.Marshal(m))
}

// batchCut says why the primary closed a batch.
type batchCut int

const (
	cutNone    batchCut = iota // the batch stays open
	cutSize                    // BatchSize requests queued
	cutBytes                   // BatchBytes of bodies queued
	cutClients                 // every client in the topology has a request queued
	cutWait                    // BatchWait ran out
	numCuts
)

// String is the reason label of the batch-cut counter and span.
func (c batchCut) String() string {
	return [numCuts]string{"none", "size", "bytes", "clients", "wait"}[c]
}

// cutReason reports whether the queue may be proposed now, and why. Under
// the paper's client model (one outstanding request per client, §2) a
// queue holding a request from every client cannot grow, so waiting longer
// would only add idle time to every request in it.
func (r *Replica) cutReason(now types.Time) batchCut {
	switch {
	case len(r.queue) >= r.cfg.BatchSize:
		return cutSize
	case r.queueBytes >= r.cfg.BatchBytes:
		return cutBytes
	case r.queuedFrom >= len(r.top.Clients):
		return cutClients
	case r.batchDeadline != 0 && now >= r.batchDeadline:
		return cutWait
	}
	return cutNone
}

// maybePropose drains the request queue into pre-prepares while capacity
// allows.
func (r *Replica) maybePropose(now types.Time) {
	if !r.isPrimary() || r.inViewChange {
		return
	}
	for len(r.queue) > 0 {
		if r.app.Busy(now) || r.syncing {
			return
		}
		next := r.nextSeq + 1
		if !r.inWindow(next) {
			return
		}
		reason := r.cutReason(now)
		if reason == cutNone {
			return
		}
		// Cut the batch at BatchSize requests or BatchBytes of bodies,
		// whichever comes first — multi-op requests from batching clients
		// can be large, and an unbounded pre-prepare would stall the
		// three-phase exchange behind one giant proposal. A single
		// oversized request still ships alone.
		k, kbytes := 0, 0
		for k < len(r.queue) && k < r.cfg.BatchSize {
			sz := len(r.queue[k].Op)
			if k > 0 && kbytes+sz > r.cfg.BatchBytes {
				break
			}
			kbytes += sz
			k++
		}
		batch := make([]wire.Request, 0, k)
		for _, q := range r.queue[:k] {
			batch = append(batch, *q)
			delete(r.queued, q.Digest())
			cs := r.client(q.Client)
			if cs.queued--; cs.queued == 0 {
				r.queuedFrom--
			}
		}
		r.queue = append(r.queue[:0], r.queue[k:]...)
		r.queueBytes -= kbytes
		r.om.queueDepth.Set(int64(len(r.queue)))
		r.om.batchCuts[reason].Inc()
		observeSince(r.om.batchWait, r.batchDeadline-r.cfg.BatchWait, now)
		if len(r.queue) == 0 {
			r.batchDeadline = 0
		} else {
			r.batchDeadline = now + r.cfg.BatchWait
		}
		r.nextSeq = next
		r.propose(next, batch, reason, now)
	}
}

// resetQueue empties the primary's request queue (a view change hands the
// buffered work to the next primary).
func (r *Replica) resetQueue() {
	r.queue = nil
	r.queued = make(map[types.Digest]bool)
	r.queueBytes = 0
	r.queuedFrom = 0
	for _, cs := range r.clients {
		cs.queued = 0
	}
	r.batchDeadline = 0
	r.om.queueDepth.Set(0)
}

// propose issues the pre-prepare for a batch at sequence n, cut for reason.
func (r *Replica) propose(n types.SeqNum, batch []wire.Request, reason batchCut, now types.Time) {
	// Oblivious nondeterminism (§3.1.4): monotone primary-proposed time
	// and recomputable pseudo-random bits.
	t := types.Timestamp(now)
	if t <= r.ndClock {
		t = r.ndClock + 1
	}
	nd := types.NonDet{Time: t, Rand: types.ComputeNonDetRand(n, t)}
	r.om.batchSize.Observe(float64(len(batch)))
	r.span(now, obs.StageBatchCut, n, fmt.Sprintf("reqs=%d reason=%s", len(batch), reason))
	pp := &wire.PrePrepare{View: r.view, Seq: n, ND: nd, Requests: batch, Primary: r.cfg.ID}
	od := pp.OrderDigest()
	att, err := r.cfg.ReplicaAuth.Attest(auth.KindPrePrepare, od, r.top.Agreement)
	if err != nil {
		return
	}
	pp.Att = att
	// The proposal is the primary's vote for this slot: make it durable
	// before any backup can see it, so a recovered primary never proposes
	// a different batch at a sequence number it already used.
	if !r.logVote(r.view, n, od, wire.VotePrePrepare) || !r.syncVotes() {
		return
	}
	r.acceptPrePrepare(pp, od, now)
	r.broadcast(wire.Marshal(pp))
}

// --- three-phase protocol -----------------------------------------------------

// validatePrePrepare checks everything a backup must verify before accepting
// a proposal, including the oblivious-nondeterminism sanity checks.
func (r *Replica) validatePrePrepare(m *wire.PrePrepare, now types.Time) (types.Digest, bool) {
	if m.View != r.view || r.inViewChange {
		return types.ZeroDigest, false
	}
	if m.Primary != r.primaryID() || !r.inWindow(m.Seq) {
		return types.ZeroDigest, false
	}
	od := m.OrderDigest()
	if r.cfg.ReplicaAuth.Verify(auth.KindPrePrepare, od, m.Att) != nil || m.Att.Node != m.Primary {
		return types.ZeroDigest, false
	}
	// Nondeterminism sanity checks: Rand must be the canonical PRF output;
	// Time must be monotone and within skew of the local clock. A null
	// batch (view-change filler) uses Time 0 and is exempt from the clock
	// checks.
	if m.ND.Rand != types.ComputeNonDetRand(m.Seq, m.ND.Time) {
		return types.ZeroDigest, false
	}
	if len(m.Requests) > 0 {
		local := types.Timestamp(now)
		if m.ND.Time+r.cfg.MaxTimeSkew < local || m.ND.Time > local+r.cfg.MaxTimeSkew {
			return types.ZeroDigest, false
		}
	}
	// Request certificates must be valid: the agreement cluster only
	// orders authentic client requests (§3.4 safety (a)). Role checks stay
	// inline; the certificate checks — the expensive part of a full batch —
	// fan out across the verify pool and join before the verdict, so the
	// handler remains a pure function of its inputs.
	for i := range m.Requests {
		if role, _, ok := r.top.RoleOf(m.Requests[i].Client); !ok || role != types.RoleClient {
			return types.ZeroDigest, false
		}
	}
	err := r.cfg.Verify.Run(len(m.Requests), func(i int) error {
		req := &m.Requests[i]
		return r.cfg.ClientAuth.Verify(auth.KindRequest, req.Digest(), req.Att)
	})
	if err != nil {
		return types.ZeroDigest, false
	}
	return od, true
}

func (r *Replica) onPrePrepare(m *wire.PrePrepare, now types.Time) {
	if r.inViewChange && m.View == r.view {
		r.holdEarlyPrePrepare(m)
		return
	}
	od, ok := r.validatePrePrepare(m, now)
	if !ok {
		return
	}
	in := r.inst(m.View, m.Seq)
	if in.pp != nil {
		if in.od != od {
			// Equivocating primary: demand a view change.
			r.om.equivocations.Inc()
			r.startViewChange(r.view+1, now)
		}
		return
	}
	// Re-vote guard: a proposal that contradicts a vote this replica sent
	// for the slot — in this incarnation or, via the WAL, before a crash —
	// is refused. A same-view digest conflict is equivocation evidence
	// even when the earlier pre-prepare itself died with the old process.
	if voteOK, conflict := r.mayVote(m.View, m.Seq, od); !voteOK {
		if conflict {
			r.om.equivocations.Inc()
			r.startViewChange(r.view+1, now)
		}
		return
	}
	r.acceptPrePrepare(m, od, now)
	if !r.isPrimary() {
		prep := &wire.Prepare{View: m.View, Seq: m.Seq, OD: od, Replica: r.cfg.ID}
		att, err := r.cfg.ReplicaAuth.Attest(auth.KindPrepare, od, r.top.Agreement)
		if err != nil {
			return
		}
		prep.Att = att
		// The prepare must be durable before it is sent: once a backup's
		// vote is on the wire it can never be retracted, crash or not.
		if !r.logVote(m.View, m.Seq, od, wire.VotePrepare) || !r.syncVotes() {
			return
		}
		in.prepares[r.cfg.ID] = vote{od: od, att: att}
		r.broadcast(wire.Marshal(prep))
		r.checkPrepared(in, now)
	}
}

// acceptPrePrepare records a valid proposal locally.
func (r *Replica) acceptPrePrepare(pp *wire.PrePrepare, od types.Digest, now types.Time) {
	in := r.inst(pp.View, pp.Seq)
	in.pp = pp
	in.od = od
	in.acceptedAt = now
	r.span(now, obs.StagePrePrepare, pp.Seq, "")
	if pp.ND.Time > r.ndClock {
		r.ndClock = pp.ND.Time
	}
	// Advance the ordering-time dedup gate. The suspicion timer
	// (cs.pending) deliberately keeps running until the request executes:
	// clearing it here would let an equivocating primary pacify backups
	// with pre-prepares that can never commit.
	for i := range pp.Requests {
		req := &pp.Requests[i]
		cs := r.client(req.Client)
		if req.Timestamp > cs.lastOrdered {
			cs.lastOrdered = req.Timestamp
		}
	}
	r.checkPrepared(in, now)
}

func (r *Replica) onPrepare(m *wire.Prepare, now types.Time) {
	if m.View != r.view || r.inViewChange || !r.inWindow(m.Seq) {
		return
	}
	if role, _, ok := r.top.RoleOf(m.Replica); !ok || role != types.RoleAgreement {
		return
	}
	if m.Replica == r.top.Primary(m.View) || m.Replica != m.Att.Node {
		return // the primary never sends prepares
	}
	// A vote the instance can no longer use — it is already prepared, or
	// holds this very vote — is dropped before its attestation is verified.
	if in := r.peek(m.View, m.Seq); in != nil && (in.prepared || holds(in.prepares, m.Replica, m.OD)) {
		return
	}
	if r.cfg.ReplicaAuth.Verify(auth.KindPrepare, m.OD, m.Att) != nil {
		return
	}
	in := r.inst(m.View, m.Seq)
	in.prepares[m.Replica] = vote{od: m.OD, att: m.Att}
	r.checkPrepared(in, now)
}

// checkPrepared advances an instance to the prepared state once it holds the
// pre-prepare and 2f matching prepares from distinct backups, then emits the
// commit.
func (r *Replica) checkPrepared(in *instance, now types.Time) {
	if in.prepared || in.pp == nil {
		return
	}
	need := 2 * r.f
	count := 0
	for id, v := range in.prepares {
		if id != r.top.Primary(in.view) && v.od == in.od {
			count++
		}
	}
	if count < need {
		return
	}
	if voteOK, _ := r.mayVote(in.view, in.seq, in.od); !voteOK {
		return // stale instance; a stronger vote for this slot exists
	}
	att, err := r.cfg.ReplicaAuth.Attest(auth.KindCommit, in.od, r.top.Agreement)
	if err != nil {
		return
	}
	// Durability before the commit claim is externalized: the prepared
	// certificate (so a post-crash view change still carries the
	// evidence) and the commit vote itself, under one sync.
	if !r.logPrepared(in) || !r.logVote(in.view, in.seq, in.od, wire.VoteCommit) || !r.syncVotes() {
		return
	}
	in.prepared = true
	in.preparedAt = now
	observeSince(r.om.prepareLat, in.acceptedAt, now)
	r.span(now, obs.StagePrepared, in.seq, "")
	in.commits[r.cfg.ID] = vote{od: in.od, att: att}
	cm := &wire.Commit{View: in.view, Seq: in.seq, OD: in.od, Replica: r.cfg.ID, Att: att}
	r.broadcast(wire.Marshal(cm))
	r.checkCommitted(in, now)
}

func (r *Replica) onCommit(m *wire.Commit, now types.Time) {
	if m.View != r.view || r.inViewChange || !r.inWindow(m.Seq) {
		return
	}
	if role, _, ok := r.top.RoleOf(m.Replica); !ok || role != types.RoleAgreement || m.Replica != m.Att.Node {
		return
	}
	// Likewise for a commit once the instance is committed or holds it.
	if in := r.peek(m.View, m.Seq); in != nil && (in.committed || holds(in.commits, m.Replica, m.OD)) {
		return
	}
	if r.cfg.ReplicaAuth.Verify(auth.KindCommit, m.OD, m.Att) != nil {
		return
	}
	in := r.inst(m.View, m.Seq)
	in.commits[m.Replica] = vote{od: m.OD, att: m.Att}
	r.checkCommitted(in, now)
}

// checkCommitted marks an instance committed once it is prepared locally and
// holds 2f+1 commit attestations, then tries to execute in order.
func (r *Replica) checkCommitted(in *instance, now types.Time) {
	if in.committed || !in.prepared || in.pp == nil {
		return
	}
	count := 0
	for _, v := range in.commits {
		if v.od == in.od {
			count++
		}
	}
	if count < 2*r.f+1 {
		return
	}
	in.committed = true
	in.committedAt = now
	observeSince(r.om.commitLat, in.preparedAt, now)
	r.span(now, obs.StageCommitted, in.seq, "")
	// Durability: log the commit as a self-proving transferable
	// certificate (the same form peers exchange during catch-up), so
	// replay after a restart re-verifies 2f+1 signatures rather than
	// trusting the disk.
	if r.cfg.Store != nil && !r.recovering && r.storeErr == nil {
		rec := wire.Marshal(&wire.CommitProof{PP: *in.pp, Commits: in.commitAtts()})
		if err := r.cfg.Store.Append(storage.RecCommit, in.seq, rec); err != nil {
			r.storeErr = err
		} else {
			r.walDirty = true
		}
	}
	if r.cfg.OnCommitted != nil {
		r.cfg.OnCommitted(in.view, in.seq)
	}
	r.executeReady(now)
}

// executeReady executes committed instances in sequence order, respecting
// app backpressure and checkpoint synchronization. It is reentrancy-safe:
// a synchronous Sync completion inside the loop defers to the outer call.
func (r *Replica) executeReady(now types.Time) {
	if r.executing {
		return
	}
	r.executing = true
	defer func() { r.executing = false }()
	if now < r.now {
		now = r.now
	}
	// With a store configured, make every logged commit durable before its
	// execution can externalize effects (the message queue sending order
	// certificates to executors). One fsync covers the whole burst — and,
	// since it clears walDirty, it doubles as the group commit for any vote
	// records deferred earlier in the same delivery burst.
	if r.cfg.Store != nil && !r.recovering {
		if r.storeErr != nil {
			return
		}
		if r.walDirty && !r.syncNow() {
			return
		}
	}
	for {
		if r.syncing {
			return
		}
		next := r.lastExec + 1
		in := r.insts[next]
		if in == nil || !in.committed || in.executed {
			return
		}
		if r.app.Busy(now) {
			return
		}
		in.executed = true
		r.lastExec = next
		r.Metrics.Batches++
		r.Metrics.Requests += uint64(len(in.pp.Requests))
		r.om.batches.Inc()
		r.om.requests.Add(uint64(len(in.pp.Requests)))
		r.om.lastExec.Set(int64(next))
		observeSince(r.om.executeLat, in.committedAt, now)
		r.span(now, obs.StageExecuted, next, "")
		// Clear suspicion timers and advance both dedup values; the
		// execution-derived one feeds the checkpoint.
		for i := range in.pp.Requests {
			req := &in.pp.Requests[i]
			cs := r.client(req.Client)
			if cs.pending != nil && cs.pending.Timestamp <= req.Timestamp {
				cs.pending = nil
			}
			if req.Timestamp > cs.lastOrdered {
				cs.lastOrdered = req.Timestamp
			}
			if req.Timestamp > cs.lastExecuted {
				cs.lastExecuted = req.Timestamp
			}
		}
		r.app.Execute(in.view, next, in.pp.ND, in.pp.Requests, now)
		if next%r.cfg.CheckpointInterval == 0 {
			r.beginCheckpoint(next)
		}
	}
}

// --- checkpoints ----------------------------------------------------------------

// beginCheckpoint starts the sync-then-checkpoint sequence of §3.2: the app
// (message queue) quiesces, then the replica signs and shares the digest.
func (r *Replica) beginCheckpoint(n types.SeqNum) {
	r.syncing = true
	r.syncSeq = n
	r.ckptBegan = r.now
	r.app.Sync(n, func(digest types.Digest, payload []byte) {
		r.completeCheckpoint(n, digest, payload)
	})
}

func (r *Replica) completeCheckpoint(n types.SeqNum, digest types.Digest, payload []byte) {
	if !r.syncing || r.syncSeq != n {
		return
	}
	// The app's Sync callback may fire asynchronously, outside any delivery
	// burst; open one so the checkpoint broadcast rides a group commit too.
	r.beginBurst()
	defer r.endBurst()
	r.syncing = false
	// The replica's own dedup table rides along with the app state: it is
	// a deterministic function of the executed log, and a state-
	// transferred replica needs it to avoid re-ordering old requests.
	payload = r.wrapCheckpoint(payload)
	digest = types.DigestBytes(payload)
	r.ckptLocal[n] = savedCheckpoint{digest: digest, payload: payload}
	r.Metrics.Checkpoints++
	r.om.checkpoints.Inc()
	observeSince(r.om.ckptSecs, r.ckptBegan, r.now)
	// If stability raced ahead of the local sync (2f+1 peers finished
	// first), the deferred persist from makeStable can complete now.
	if n == r.lastStable {
		r.persistStable(n)
	}
	// Checkpoint-stability proofs are persisted, served to state-
	// transferring peers, and embedded in view changes — transferable by
	// construction, hence TransferAuth even when agreement votes are MACs.
	att, err := r.cfg.TransferAuth.Attest(auth.KindAgreeCheckpoint, wire.CheckpointDigest(n, digest), r.top.Agreement)
	if err != nil {
		return
	}
	cm := wire.AgreeCheckpoint{Seq: n, State: digest, Replica: r.cfg.ID, Att: att}
	r.recordCheckpointVote(cm)
	r.broadcast(wire.Marshal(&cm))
	// Execution resumed: catch up on anything committed meanwhile.
	r.executeReady(r.now)
	r.maybePropose(r.now)
}

func (r *Replica) onCheckpoint(m *wire.AgreeCheckpoint, now types.Time) {
	if m.Seq <= r.lastStable || m.Replica != m.Att.Node {
		return
	}
	if role, _, ok := r.top.RoleOf(m.Replica); !ok || role != types.RoleAgreement {
		return
	}
	if r.cfg.TransferAuth.Verify(auth.KindAgreeCheckpoint, wire.CheckpointDigest(m.Seq, m.State), m.Att) != nil {
		return
	}
	r.recordCheckpointVote(*m)
}

func (r *Replica) recordCheckpointVote(m wire.AgreeCheckpoint) {
	votes := r.ckptVotes[m.Seq]
	if votes == nil {
		votes = make(map[types.NodeID]wire.AgreeCheckpoint)
		r.ckptVotes[m.Seq] = votes
	}
	votes[m.Replica] = m
	// Count matching digests.
	count := 0
	for _, v := range votes {
		if v.State == m.State {
			count++
		}
	}
	if count >= 2*r.f+1 {
		r.makeStable(m.Seq, m.State, votes)
	}
}

// makeStable installs a stable checkpoint and garbage-collects the log.
func (r *Replica) makeStable(n types.SeqNum, digest types.Digest, votes map[types.NodeID]wire.AgreeCheckpoint) {
	if n <= r.lastStable {
		return
	}
	proof := make([]wire.AgreeCheckpoint, 0, 2*r.f+1)
	for _, v := range votes {
		if v.State == digest {
			proof = append(proof, v)
		}
	}
	// Canonical proof order: the set is persisted and served to lagging
	// peers, so its bytes must not depend on map iteration order.
	sort.Slice(proof, func(i, j int) bool { return proof[i].Replica < proof[j].Replica })
	r.lastStable = n
	r.stableProof = proof
	r.om.lastStable.Set(int64(n))
	r.span(r.now, obs.StageCheckpoint, n, "stable")
	// Durability: persist the stable checkpoint with its vote set, then
	// let the WAL shed segments it supersedes.
	r.persistStable(n)
	// If we fell behind (stable point ahead of execution), state-transfer.
	if r.lastExec < n {
		if _, ok := r.ckptLocal[n]; !ok {
			r.requestStateTransfer(n, digest)
		}
	}
	for seq := range r.insts {
		if seq <= n {
			delete(r.insts, seq)
		}
	}
	// The re-vote guard only matters inside the window: pre-prepares at or
	// below the stable watermark are rejected by inWindow regardless, so
	// vote bookkeeping for them can go (mirroring the WAL's segment GC of
	// RecVote/RecPrepared records below the watermark).
	for seq := range r.voted {
		if seq <= n {
			delete(r.voted, seq)
		}
	}
	for seq := range r.ckptVotes {
		if seq <= n {
			delete(r.ckptVotes, seq)
		}
	}
	for seq := range r.ckptLocal {
		if seq < n { // keep the latest for serving peers
			delete(r.ckptLocal, seq)
		}
	}
}

// persistStable writes the stable checkpoint (wrapped payload + 2f+1 vote
// proof) to the store, if the payload is locally available, and prunes WAL
// segments it supersedes. Safe to call repeatedly; the store dedups by
// sequence number.
func (r *Replica) persistStable(n types.SeqNum) {
	if r.cfg.Store == nil || r.storeErr != nil || n != r.lastStable {
		return
	}
	saved, ok := r.ckptLocal[n]
	if !ok {
		return // payload still syncing or state-transferring; persisted later
	}
	// Re-log the current view state above the new watermark and make it
	// durable BEFORE the checkpoint lands: the checkpoint is what advances
	// recovery's replay cursor past the old view record, so it must never
	// reach disk first — a crash between the two would strand the view
	// below the cursor and restart the replica in view 0. The re-logged
	// record at n+1 is harmless if the checkpoint never lands, and pruning
	// (which could delete the segment holding the old record) comes last.
	r.loggedView, r.loggedVC = 0, false // force a fresh record
	if !r.logView(r.view, r.inViewChange) || !r.logNewView(r.lastNewView) {
		return
	}
	// This sync must not defer to a burst's group commit: SaveCheckpoint
	// advances the replay cursor the moment it hits disk, so the re-logged
	// records have to be durable first, not merely queued.
	if r.voteWAL() && !r.syncNow() {
		return
	}
	err := r.cfg.Store.SaveCheckpoint(storage.Checkpoint{
		Seq: n, Digest: saved.digest,
		Proof:   wire.EncodeAgreeProof(r.stableProof),
		Payload: saved.payload,
	})
	if err != nil {
		r.storeErr = err
		return
	}
	if err := r.cfg.Store.Prune(n); err != nil {
		r.storeErr = err
	}
}

// wrapCheckpoint prepends the canonical per-client dedup table to the app's
// checkpoint payload.
func (r *Replica) wrapCheckpoint(appPayload []byte) []byte {
	ids := make([]types.NodeID, 0, len(r.clients))
	for id, cs := range r.clients {
		if cs.lastExecuted > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var w wire.Writer
	w.Len(len(ids))
	for _, id := range ids {
		w.Node(id)
		w.TS(r.clients[id].lastExecuted)
	}
	w.Bytes(appPayload)
	return w.B
}

// unwrapCheckpoint splits a wrapped payload back into dedup table and app
// state.
func (r *Replica) unwrapCheckpoint(payload []byte) (map[types.NodeID]types.Timestamp, []byte, error) {
	rd := wire.NewReader(payload)
	n := rd.SliceLen()
	dedup := make(map[types.NodeID]types.Timestamp, n)
	for i := 0; i < n; i++ {
		id := rd.Node()
		dedup[id] = rd.TS()
	}
	appPayload := rd.Bytes()
	if rd.Err() != nil || rd.Remaining() != 0 {
		return nil, nil, fmt.Errorf("pbft: malformed checkpoint payload")
	}
	return dedup, appPayload, nil
}

// --- state transfer and catch-up ----------------------------------------------

func (r *Replica) requestStateTransfer(n types.SeqNum, digest types.Digest) {
	if r.fetchingSeq >= n {
		return
	}
	r.fetchingSeq = n
	r.fetchDeadline = r.now + r.cfg.ViewChangeResend
	// Ask everyone; first valid payload wins.
	r.broadcast(wire.Marshal(&wire.CheckpointFetch{Seq: n, Executor: r.cfg.ID}))
}

func (r *Replica) onCheckpointFetch(m *wire.CheckpointFetch, from types.NodeID, now types.Time) {
	if saved, ok := r.ckptLocal[m.Seq]; ok {
		r.send(from, wire.Marshal(&wire.CheckpointData{Seq: m.Seq, State: saved.digest, Payload: saved.payload}))
	}
}

func (r *Replica) onCheckpointData(m *wire.CheckpointData, now types.Time) {
	if m.Seq <= r.lastExec || m.Seq != r.fetchingSeq {
		return
	}
	// Validate against the stability proof gathered in makeStable.
	if m.Seq != r.lastStable {
		return
	}
	want := r.stableProof
	if len(want) == 0 || want[0].State != m.State {
		return
	}
	if types.DigestBytes(m.Payload) != m.State {
		return
	}
	dedup, appPayload, err := r.unwrapCheckpoint(m.Payload)
	if err != nil {
		return
	}
	if err := r.app.Restore(m.Seq, m.State, appPayload); err != nil {
		return
	}
	for id, ts := range dedup {
		cs := r.client(id)
		if ts > cs.lastOrdered {
			cs.lastOrdered = ts
		}
		if ts > cs.lastExecuted {
			cs.lastExecuted = ts
		}
		cs.pending = nil
	}
	r.ckptLocal[m.Seq] = savedCheckpoint{digest: m.State, payload: m.Payload}
	r.lastExec = m.Seq
	r.fetchingSeq = 0
	r.syncing = false
	// A state transfer that filled in the stable payload completes the
	// deferred persist from makeStable.
	r.persistStable(m.Seq)
	r.executeReady(now)
}

func (r *Replica) onStatus(m *wire.Status, now types.Time) {
	if role, _, ok := r.top.RoleOf(m.Replica); !ok || role != types.RoleAgreement || m.Replica == r.cfg.ID {
		return
	}
	// Peer lags behind our stable checkpoint: send the proof so it can
	// state-transfer.
	if m.LastStable < r.lastStable {
		for _, c := range r.stableProof {
			cp := c
			r.send(m.Replica, wire.Marshal(&cp))
		}
	}
	// Peer is missing committed batches within our window: replay them as
	// transferable commit proofs.
	if m.LastExec < r.lastExec {
		const maxReplay = 16
		sent := 0
		for n := m.LastExec + 1; n <= r.lastExec && sent < maxReplay; n++ {
			in := r.insts[n]
			if in == nil || !in.committed || in.pp == nil {
				continue
			}
			r.send(m.Replica, wire.Marshal(&wire.CommitProof{PP: *in.pp, Commits: in.commitAtts()}))
			sent++
		}
	}
	// Peer is in an older view: resend the proof that the view advanced.
	if m.View < r.view && r.lastNewView != nil && r.lastNewView.View == r.view {
		r.send(m.Replica, wire.Marshal(r.lastNewView))
	}
}

// onCommitProof applies a transferable commit certificate from a peer (or,
// during recovery, from the replica's own WAL — replay is bounded by the
// log tail, so the live window bound does not apply there).
func (r *Replica) onCommitProof(m *wire.CommitProof, now types.Time) {
	n := m.PP.Seq
	if n <= r.lastExec {
		return
	}
	if !r.recovering && !r.inWindow(n) {
		return
	}
	od := m.PP.OrderDigest()
	// The pre-prepare must come from the primary of its view, and the
	// commit certificate must hold 2f+1 distinct valid signatures.
	if m.PP.Att.Node != r.top.Primary(m.PP.View) {
		return
	}
	if r.certAuth.Verify(auth.KindPrePrepare, od, m.PP.Att) != nil {
		return
	}
	allowed := make(map[types.NodeID]bool, r.n)
	for _, id := range r.top.Agreement {
		allowed[id] = true
	}
	if auth.CountDistinctPar(r.cfg.Verify, r.certAuth, auth.KindCommit, od, m.Commits, allowed) < 2*r.f+1 {
		return
	}
	in := r.inst(m.PP.View, n)
	if in.executed {
		return
	}
	// A commit learned via catch-up must hit the WAL like one assembled
	// from live votes (checkCommitted), or recovery would have a hole at
	// this slot despite the proof having driven execution.
	if r.cfg.Store != nil && !r.recovering && !in.committed && r.storeErr == nil {
		if err := r.cfg.Store.Append(storage.RecCommit, n, wire.Marshal(m)); err != nil {
			r.storeErr = err
		} else {
			r.walDirty = true
		}
	}
	pp := m.PP
	in.pp = &pp
	in.od = od
	in.prepared = true
	in.committed = true
	for _, a := range m.Commits {
		in.commits[a.Node] = vote{od: od, att: a}
	}
	if pp.ND.Time > r.ndClock {
		r.ndClock = pp.ND.Time
	}
	r.executeReady(now)
}

// --- durable recovery ---------------------------------------------------------

// Recover restores the replica from its store after a restart: the newest
// checkpoint whose 2f+1 votes and digest verify, then the WAL tail replayed
// through the normal verify-and-execute path (onCommitProof). Execution of
// replayed batches re-drives the message queue, whose retransmissions bring
// the execution cluster back in step; anything newer than the log arrives
// via the existing status-gossip catch-up. Unverifiable checkpoints and
// records are skipped, never fatal.
func (r *Replica) Recover(now types.Time) error {
	st := r.cfg.Store
	if st == nil {
		return nil
	}
	r.recovering = true
	defer func() { r.recovering = false }()
	cks, err := st.Checkpoints()
	if err != nil {
		return err
	}
	allowed := make(map[types.NodeID]bool, r.n)
	for _, id := range r.top.Agreement {
		allowed[id] = true
	}
	for _, ck := range cks { // newest first; take the first that verifies
		if types.DigestBytes(ck.Payload) != ck.Digest {
			continue
		}
		votes, err := wire.DecodeAgreeProof(ck.Proof)
		if err != nil {
			continue
		}
		atts := make([]auth.Attestation, 0, len(votes))
		for i := range votes {
			if votes[i].Seq == ck.Seq && votes[i].State == ck.Digest {
				atts = append(atts, votes[i].Att)
			}
		}
		cd := wire.CheckpointDigest(ck.Seq, ck.Digest)
		if auth.CountDistinctPar(r.cfg.Verify, r.cfg.TransferAuth, auth.KindAgreeCheckpoint, cd, atts, allowed) < 2*r.f+1 {
			continue
		}
		dedup, appPayload, err := r.unwrapCheckpoint(ck.Payload)
		if err != nil {
			continue
		}
		if err := r.app.Restore(ck.Seq, ck.Digest, appPayload); err != nil {
			continue
		}
		for id, ts := range dedup {
			cs := r.client(id)
			cs.lastOrdered = ts
			cs.lastExecuted = ts
		}
		r.ckptLocal[ck.Seq] = savedCheckpoint{digest: ck.Digest, payload: ck.Payload}
		r.lastExec = ck.Seq
		r.lastStable = ck.Seq
		r.stableProof = votes
		r.nextSeq = ck.Seq
		break
	}
	// Replay the tail: commits, votes, prepared certificates, and view
	// transitions interleaved in append order. CommitProofs and prepared
	// certificates are self-proving and go through untrusted verify paths,
	// so a tampered WAL can stall recovery but never forge an order. Vote
	// and view records are this replica's own promises: restoring a forged
	// one can only make the replica refuse votes or campaign spuriously
	// (liveness, absorbed by the cluster), never break agreement safety.
	maxSeen := r.lastExec
	var viewRec *wire.ViewRecord
	var nvRec *wire.NewView
	err = st.Replay(r.lastStable, func(kind storage.RecordKind, seq types.SeqNum, payload []byte) error {
		switch kind {
		case storage.RecCommit:
			if seq <= r.lastStable {
				return nil
			}
			msg, err := wire.Unmarshal(payload)
			if err != nil {
				return nil // CRC-clean but unparsable: skip, catch up instead
			}
			if proof, ok := msg.(*wire.CommitProof); ok {
				r.onCommitProof(proof, now)
				// Advance the proposal floor only for proofs the verify path
				// actually accepted (instance exists and committed) — a
				// tampered-but-CRC-valid record with a huge PP.Seq must not
				// poison nextSeq and wedge this replica's future primariate.
				n := proof.PP.Seq
				if in := r.insts[n]; in != nil && in.committed && n > maxSeen {
					maxSeen = n
				}
			}
		case storage.RecVote:
			v, err := wire.DecodeVoteRecord(payload)
			if err != nil || v.Seq != seq || v.Seq <= r.lastStable {
				return nil
			}
			prev, ok := r.voted[v.Seq]
			if !ok || v.View > prev.view || (v.View == prev.view && v.Phase > prev.phase) {
				r.voted[v.Seq] = votedSlot{view: v.View, od: v.OD, phase: v.Phase}
			}
		case storage.RecPrepared:
			ent, err := wire.DecodePreparedRecord(payload)
			if err == nil && ent.Seq == seq {
				r.restorePrepared(ent)
			}
		case storage.RecView:
			v, err := wire.DecodeViewRecord(payload)
			if err == nil {
				viewRec = &v // append order: the last one is current
			}
		case storage.RecNewView:
			if msg, err := wire.Unmarshal(payload); err == nil {
				if nv, ok := msg.(*wire.NewView); ok {
					nvRec = nv // append order: the last one is current
				}
			}
		}
		return nil
	})
	// A recovered primary must never reuse a sequence number it may have
	// proposed (or voted) in a previous life.
	for n := range r.voted {
		if n > maxSeen {
			maxSeen = n
		}
	}
	if maxSeen > r.nextSeq {
		r.nextSeq = maxSeen
	}
	// Re-enter the recorded view. A replica that crashed mid-campaign
	// resumes campaigning: its rebuilt VIEW-CHANGE (carrying the restored
	// prepared evidence) goes out on the first Tick, so the cluster's
	// pending view change can complete with this replica counted in.
	if viewRec != nil && viewRec.View > r.view {
		r.view = viewRec.View
		r.loggedView, r.loggedVC = viewRec.View, viewRec.InChange
		if viewRec.InChange {
			r.inViewChange = true
			vc := r.buildViewChange(r.view)
			r.sentVC = vc
			r.storeViewChange(vc)
			r.vcDeadline = 0 // rebroadcast immediately
		}
	}
	// Restore the NEW-VIEW this replica installed before the crash, re-
	// validating it end to end — the WAL is untrusted input, and a forged
	// record must not be re-served to peers. Only the retransmission cache
	// is restored here (the view itself came from the view record above);
	// it re-arms the onStatus/onViewChange straggler catch-up paths.
	if nvRec != nil && nvRec.View == r.view && !r.inViewChange {
		if _, _, ok := r.validateNewView(nvRec); ok {
			r.lastNewView = nvRec
		}
	}
	return err
}

// restorePrepared re-installs a prepared slot from its logged certificate,
// re-verifying the primary's pre-prepare attestation, the 2f backup
// prepares, and the canonical nondeterminism — the WAL is untrusted input.
// Invalid or superseded entries are skipped, never fatal.
func (r *Replica) restorePrepared(e *wire.PreparedEntry) {
	if e.Seq <= r.lastStable || e.Seq <= r.lastExec {
		return
	}
	if in := r.insts[e.Seq]; in != nil && (in.committed || in.view >= e.View) {
		return
	}
	if !r.verifyPreparedEvidence(e) {
		return
	}
	od := e.OrderDigest()
	primary := r.top.Primary(e.View)
	in := &instance{
		view: e.View,
		seq:  e.Seq,
		od:   od,
		pp: &wire.PrePrepare{
			View: e.View, Seq: e.Seq, ND: e.ND,
			Requests: e.Requests, Primary: primary, Att: e.PrimaryAtt,
		},
		prepares: make(map[types.NodeID]vote, len(e.Prepares)),
		commits:  make(map[types.NodeID]vote),
		prepared: true,
	}
	for _, att := range e.Prepares {
		in.prepares[att.Node] = vote{od: od, att: att}
	}
	r.insts[e.Seq] = in
	if e.ND.Time > r.ndClock {
		r.ndClock = e.ND.Time
	}
}

// Shutdown flushes and closes the store (graceful-exit path). The replica
// must not be driven afterwards.
func (r *Replica) Shutdown() {
	if r.cfg.Store == nil {
		return
	}
	_ = r.cfg.Store.Sync()
	_ = r.cfg.Store.Close()
}

// CrashStop abandons the store without flushing — the in-process stand-in
// for kill -9 that recovery tests exercise. Graceful paths use Shutdown.
func (r *Replica) CrashStop() {
	if ab, ok := r.cfg.Store.(interface{ Abandon() }); ok {
		ab.Abandon()
	}
}

// --- timers ------------------------------------------------------------------

// Tick implements transport.Node: it drives batching, suspicion timers,
// view-change retransmission, state-transfer retries, and status gossip.
func (r *Replica) Tick(now types.Time) {
	if now > r.now {
		r.now = now
	}
	r.beginBurst()
	defer r.endBurst()
	r.maybePropose(now)
	r.executeReady(now)

	// Retry a stalled state transfer.
	if r.fetchingSeq != 0 && r.lastExec < r.fetchingSeq && now >= r.fetchDeadline {
		r.fetchDeadline = now + r.cfg.ViewChangeResend
		r.broadcast(wire.Marshal(&wire.CheckpointFetch{Seq: r.fetchingSeq, Executor: r.cfg.ID}))
	}

	// Backup suspicion: a buffered client request the primary has not
	// ordered within the timeout triggers a view change.
	if !r.inViewChange && !r.isPrimary() {
		for _, cs := range r.clients {
			if cs.pending != nil && now-cs.pendingSince > r.cfg.RequestTimeout {
				r.startViewChange(r.view+1, now)
				break
			}
		}
	}
	r.tickViewChange(now)

	if r.statusDeadline == 0 || now >= r.statusDeadline {
		r.statusDeadline = now + r.cfg.StatusInterval
		st := &wire.Status{View: r.view, LastExec: r.lastExec, LastStable: r.lastStable, Replica: r.cfg.ID}
		r.broadcast(wire.Marshal(st))
	}
}
