// Package execnode implements the execution cluster of §3.3: the 2g+1
// application-hosting replicas that process requests in the order proven by
// agreement certificates.
//
// Each replica maintains the application state machine, a bounded pending
// list of ordered-but-not-executed batches, the per-client reply table that
// provides exactly-once semantics, and periodic checkpoints whose stability
// is proven by g+1 signed attestations. Because the channel from the
// agreement cluster is unreliable, the cluster runs its own second-level
// retransmission protocol: gaps are filled by fetching agreement
// certificates from peers, or — when peers have garbage-collected them — by
// transferring a provably stable checkpoint (§3.3.1–§3.3.2).
//
// Only a simple majority of execution replicas needs to be correct: the
// ordering is already cryptographically proven, so g+1 matching replies out
// of 2g+1 replicas certify a correct result. This is the paper's central
// cost reduction over 3f+1-replica execution.
package execnode

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/auth"
	"repro/internal/obs"
	"repro/internal/replycert"
	"repro/internal/seal"
	"repro/internal/sm"
	"repro/internal/storage"
	"repro/internal/threshold"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config parameterizes an execution replica.
type Config struct {
	ID       types.NodeID
	Topology *types.Topology

	// OrderAuth verifies agreement replicas' order attestations (2f+1
	// distinct pieces form an agreement certificate).
	OrderAuth auth.Scheme
	// ReplyAuth attests reply bundles in quorum mode.
	ReplyAuth auth.Scheme
	// ExecAuth signs checkpoint attestations (must be a signature scheme:
	// stability proofs are shown to peers and filters).
	ExecAuth auth.Scheme
	// Verify, when non-nil, fans order-certificate attestation checks out
	// across a bounded worker pool that joins before the handler proceeds.
	// Nil verifies inline.
	Verify *auth.VerifyPool

	// ReplyMode selects quorum (MAC/signature) or threshold certificates.
	ReplyMode replycert.Mode
	// ThresholdShare is this replica's signing share in threshold mode.
	ThresholdShare *threshold.KeyShare
	// ShareRand supplies blinding randomness for share proofs.
	ShareRand io.Reader

	// ClientAuth verifies clients' certified-read probes (KindReadRequest):
	// the same scheme construction the agreement cluster uses for request
	// certificates. Nil disables the read path — ReadRequests are dropped.
	ClientAuth auth.Scheme

	// ReplyDests receives this replica's reply shares: the agreement
	// cluster, or the top firewall row.
	ReplyDests []types.NodeID
	// DirectReplyToClients additionally sends shares straight to clients
	// (the paper's optimization; must stay off behind a privacy firewall).
	DirectReplyToClients bool

	// Seals, when non-nil, holds per-client sealers: request bodies are
	// decrypted before execution and reply bodies encrypted after, so the
	// relay path sees only ciphertext (§4.1).
	Seals map[types.NodeID]*seal.Sealer

	Pipeline           int // P: max buffered out-of-order batches
	CheckpointInterval types.SeqNum
	FetchRetry         types.Time

	// Store, when non-nil, makes the replica durable: applied agreement
	// certificates are appended to its WAL (and synced before their
	// replies are externalized), stable checkpoints are persisted with
	// their g+1 attestations, and Recover restores both after a restart.
	// Nil keeps the seed's in-memory behavior.
	Store storage.Store

	// Obs, when non-nil, receives this replica's metrics (write-only from
	// this package; see internal/obs). Trace, when non-nil, receives
	// lifecycle spans stamped with the protocol clock.
	Obs   *obs.Registry
	Trace *obs.Tracer

	// ReplyRetention bounds the exactly-once reply table: entries whose
	// client has been idle for more than this many sequence numbers are
	// pruned at the next checkpoint (a deterministic point, so all correct
	// replicas prune identically and checkpoint digests still match). A
	// client that retransmits after falling that far behind is re-executed
	// rather than answered from cache — the standard trade for a bounded
	// table. Zero takes the default (4096).
	ReplyRetention types.SeqNum
}

func (c *Config) fillDefaults() {
	if c.Pipeline == 0 {
		c.Pipeline = 32
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 64
	}
	if c.FetchRetry == 0 {
		c.FetchRetry = types.Millisecond(40)
	}
	if c.ReplyRetention == 0 {
		c.ReplyRetention = 4096
	}
}

// orderAccum accumulates agreement-certificate pieces for one sequence
// number until 2f+1 distinct replicas vouch for the same order digest.
type orderAccum struct {
	byDigest  map[types.Digest]*orderCand
	firstSeen types.Time // when the first share arrived (apply-lag metric)
}

type orderCand struct {
	order *wire.Order // first message carrying this digest (bodies)
	atts  map[types.NodeID]auth.Attestation
}

// holds reports whether replica id's piece of the certificate for order
// digest od is already recorded.
func (a *orderAccum) holds(od types.Digest, id types.NodeID) bool {
	if a == nil || a.byDigest[od] == nil {
		return false
	}
	_, ok := a.byDigest[od].atts[id]
	return ok
}

// replyState is reply_c: this node's piece of the most recent reply
// certificate sent to client c (§3.3).
type replyState struct {
	timestamp types.Timestamp
	body      []byte       // cached reply body r' (sealed if sealing is on)
	seq       types.SeqNum // batch that last touched this entry (for pruning)
}

// sentShare is a reply bundle share as it was sent: its sequence number and
// encoding, kept so retransmissions resend the bytes instead of re-encoding.
// In threshold mode it also keeps the bundle, its digest and the bare share,
// so a combiner's proof request can be answered, and the proven encoding
// once computed, so the bundle is proven at most once.
type sentShare struct {
	seq  types.SeqNum
	data []byte

	entries []wire.Reply
	digest  types.Digest
	share   *threshold.SigShare
	proven  []byte
}

// Replica is one execution-cluster member.
type Replica struct {
	cfg      Config
	send     transport.Sender
	readSend transport.Sender // read replies only; nil falls back to send
	top      *types.Topology
	app      sm.StateMachine
	f        int
	g        int

	maxN    types.SeqNum // highest executed sequence number
	pending map[types.SeqNum]*orderAccum
	proofs  map[types.SeqNum]*wire.OrderProof // executed, kept until stable
	replies map[types.NodeID]*replyState
	lastOut map[types.NodeID]*sentShare // last bundle share per client

	// checkpoints
	ckptVotes  map[types.SeqNum]map[types.NodeID]wire.ExecCheckpoint
	ckptLocal  map[types.SeqNum][]byte // payloads of local checkpoints
	stableSeq  types.SeqNum
	stableDig  types.Digest
	stableAtts []auth.Attestation

	// gap filling
	fetchDeadline types.Time

	// durability
	recovering bool  // suppresses re-logging while replaying the WAL
	storeErr   error // first storage failure; halts execution (fail-stop)

	// observability (write-only from this package; see obs.go)
	om    metrics
	trace *obs.Tracer

	// Metrics counts externally observable activity.
	Metrics Metrics
}

// Metrics aggregates counters exposed for tests and benchmarks.
type Metrics struct {
	Executed      uint64 // batches executed
	Requests      uint64 // requests executed (fresh, not retransmissions)
	MultiOps      uint64 // operations executed out of multi-op envelopes
	Retransmits   uint64 // retransmission acknowledgements produced
	Checkpoints   uint64
	StateTransfer uint64
	Fetches       uint64
	ReadsServed   uint64 // certified-read probes answered from applied state
	ReadsRefused  uint64 // probes answered with a signed refusal
	ShareProofs   uint64 // threshold share proofs computed for combiners that asked
}

// New constructs an execution replica hosting the given state machine.
func New(cfg Config, app sm.StateMachine, send transport.Sender) (*Replica, error) {
	cfg.fillDefaults()
	top := cfg.Topology
	if top == nil {
		return nil, fmt.Errorf("execnode: nil topology")
	}
	role, _, ok := top.RoleOf(cfg.ID)
	if !ok || role != types.RoleExecution {
		return nil, fmt.Errorf("execnode: %v is not an execution replica", cfg.ID)
	}
	if cfg.ReplyMode == replycert.ModeThreshold && cfg.ThresholdShare == nil {
		return nil, fmt.Errorf("execnode: threshold mode requires a key share")
	}
	if len(cfg.ReplyDests) == 0 && !cfg.DirectReplyToClients {
		return nil, fmt.Errorf("execnode: no reply destinations configured")
	}
	return &Replica{
		cfg:       cfg,
		send:      send,
		top:       top,
		app:       app,
		f:         top.F(),
		g:         top.G(),
		pending:   make(map[types.SeqNum]*orderAccum),
		proofs:    make(map[types.SeqNum]*wire.OrderProof),
		replies:   make(map[types.NodeID]*replyState),
		lastOut:   make(map[types.NodeID]*sentShare),
		ckptVotes: make(map[types.SeqNum]map[types.NodeID]wire.ExecCheckpoint),
		ckptLocal: make(map[types.SeqNum][]byte),
		om:        newExecMetrics(cfg.Obs, cfg.ID),
		trace:     cfg.Trace,
	}, nil
}

// MaxN returns the highest executed sequence number.
func (r *Replica) MaxN() types.SeqNum { return r.maxN }

// StorageErr reports the first storage failure, if any. A replica whose
// store fails stops executing (fail-stop) rather than serving undurable
// results; the cluster masks it like any other fault.
func (r *Replica) StorageErr() error { return r.storeErr }

// StableSeq returns the latest stable checkpoint sequence number.
func (r *Replica) StableSeq() types.SeqNum { return r.stableSeq }

// Deliver implements transport.Node.
func (r *Replica) Deliver(from types.NodeID, data []byte, now types.Time) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	r.Receive(from, msg, now)
}

// Receive dispatches one decoded message.
func (r *Replica) Receive(from types.NodeID, msg wire.Message, now types.Time) {
	switch m := msg.(type) {
	case *wire.Order:
		r.onOrder(m, now)
	case *wire.OrderProof:
		r.onOrderProof(m, now)
	case *wire.ExecCheckpoint:
		r.onCheckpoint(m, now)
	case *wire.FetchMissing:
		r.onFetchMissing(m, now)
	case *wire.StableProof:
		r.onStableProof(m, now)
	case *wire.CheckpointFetch:
		r.onCheckpointFetch(m, now)
	case *wire.CheckpointData:
		r.onCheckpointData(m, now)
	case *wire.ReadRequest:
		r.onReadRequest(m, now)
	case *wire.ProofRequest:
		r.onProofRequest(from, m)
	}
}

// --- agreement certificates ------------------------------------------------------

func (r *Replica) onOrder(m *wire.Order, now types.Time) {
	if m.Seq <= r.maxN {
		// Retransmission from the agreement cluster: resend the cached
		// partial reply certificates for the batch's clients (§3.3).
		r.resendCached(m)
		return
	}
	if m.Seq > r.maxN+types.SeqNum(r.cfg.Pipeline) {
		// Beyond the pending-list bound P: we are far behind. Don't
		// buffer, but do start gap-filling so we can rejoin.
		r.requestMissing(now)
		return
	}
	role, _, ok := r.top.RoleOf(m.Replica)
	if !ok || role != types.RoleAgreement || m.Att.Node != m.Replica {
		return
	}
	od := m.OrderDigest()
	// A piece already recorded (each order arrives once per filter column,
	// and again on retransmission) changes nothing: skip its verification.
	if acc := r.pending[m.Seq]; !acc.holds(od, m.Replica) {
		if r.cfg.OrderAuth.Verify(auth.KindOrder, od, m.Att) != nil {
			return
		}
		if acc == nil {
			acc = &orderAccum{byDigest: make(map[types.Digest]*orderCand), firstSeen: now}
			r.pending[m.Seq] = acc
			r.om.queueDepth.Set(int64(len(r.pending)))
		}
		cand := acc.byDigest[od]
		if cand == nil {
			cand = &orderCand{order: m, atts: make(map[types.NodeID]auth.Attestation)}
			acc.byDigest[od] = cand
		}
		cand.atts[m.Replica] = m.Att
		if len(cand.atts) >= 2*r.f+1 {
			r.completeOrder(m.Seq, cand, now)
		}
	}
	// A gap below this sequence number means we missed traffic: ask peers.
	if m.Seq > r.maxN+1 {
		r.requestMissing(now)
	}
}

// onOrderProof applies a complete agreement certificate from a peer (or,
// during recovery, from the replica's own WAL — replay is bounded by the
// log tail, so the live pipeline cap does not apply there).
func (r *Replica) onOrderProof(m *wire.OrderProof, now types.Time) {
	if m.Seq <= r.maxN {
		return
	}
	if !r.recovering && m.Seq > r.maxN+types.SeqNum(r.cfg.Pipeline) {
		return
	}
	od := m.OrderDigest()
	allowed := make(map[types.NodeID]bool)
	for _, id := range r.top.Agreement {
		allowed[id] = true
	}
	if auth.CountDistinctPar(r.cfg.Verify, r.cfg.OrderAuth, auth.KindOrder, od, m.Atts, allowed) < 2*r.f+1 {
		return
	}
	acc := r.pending[m.Seq]
	if acc == nil {
		acc = &orderAccum{byDigest: make(map[types.Digest]*orderCand), firstSeen: now}
		r.pending[m.Seq] = acc
		r.om.queueDepth.Set(int64(len(r.pending)))
	}
	cand := acc.byDigest[od]
	if cand == nil {
		cand = &orderCand{
			order: &wire.Order{View: m.View, Seq: m.Seq, ND: m.ND, Requests: m.Requests},
			atts:  make(map[types.NodeID]auth.Attestation),
		}
		acc.byDigest[od] = cand
	}
	for _, a := range m.Atts {
		cand.atts[a.Node] = a
	}
	r.completeOrder(m.Seq, cand, now)
}

// completeOrder stores the proven certificate and executes in order.
func (r *Replica) completeOrder(n types.SeqNum, cand *orderCand, now types.Time) {
	if _, done := r.proofs[n]; done || n <= r.maxN {
		return
	}
	atts := make([]auth.Attestation, 0, len(cand.atts))
	ids := make([]types.NodeID, 0, len(cand.atts))
	for id := range cand.atts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		atts = append(atts, cand.atts[id])
	}
	r.proofs[n] = &wire.OrderProof{
		View: cand.order.View, Seq: n, ND: cand.order.ND,
		Requests: cand.order.Requests, Atts: atts,
	}
	// Durability: log the self-proving certificate before execution can
	// externalize its effects. Replay feeds it back through onOrderProof.
	if r.cfg.Store != nil && !r.recovering && r.storeErr == nil {
		if err := r.cfg.Store.Append(storage.RecOrder, n, wire.Marshal(r.proofs[n])); err != nil {
			r.storeErr = err
		}
	}
	r.executeReady(now)
}

// executeReady runs proven batches in sequence order. With a store
// configured it first makes every logged certificate durable — one fsync
// covers the whole delivery burst (group commit), and no reply leaves this
// replica for a batch that could vanish in a crash.
func (r *Replica) executeReady(now types.Time) {
	if r.cfg.Store != nil && !r.recovering {
		if r.storeErr != nil {
			return
		}
		if err := r.cfg.Store.Sync(); err != nil {
			r.storeErr = err
			return
		}
	}
	for {
		next := r.maxN + 1
		proof, ok := r.proofs[next]
		if !ok {
			return
		}
		if acc := r.pending[next]; acc != nil {
			observeSince(r.om.applyLag, acc.firstSeen, now)
		}
		delete(r.pending, next)
		r.maxN = next
		r.om.queueDepth.Set(int64(len(r.pending)))
		r.om.appliedSeq.Set(int64(next))
		r.executeBatch(proof, now)
		if next%r.cfg.CheckpointInterval == 0 {
			r.makeCheckpoint(next)
			r.span(now, obs.StageCheckpoint, next, "local")
		}
	}
}

// executeBatch applies the paper's three exactly-once cases per request and
// emits one bundled reply share for the whole batch.
func (r *Replica) executeBatch(proof *wire.OrderProof, now types.Time) {
	r.Metrics.Executed++
	r.om.batches.Inc()
	r.span(now, obs.StageApply, proof.Seq, fmt.Sprintf("reqs=%d", len(proof.Requests)))
	entries := make([]wire.Reply, 0, len(proof.Requests))
	for i := range proof.Requests {
		req := &proof.Requests[i]
		rs := r.replies[req.Client]
		if rs == nil {
			rs = &replyState{}
			r.replies[req.Client] = rs
		}
		rs.seq = proof.Seq
		var entry wire.Reply
		if req.Timestamp > rs.timestamp {
			// Case 1: fresh request — execute it.
			body := r.execute(req, proof.ND)
			rs.timestamp = req.Timestamp
			rs.body = body
			entry = wire.Reply{View: proof.View, Seq: proof.Seq, Client: req.Client, Timestamp: req.Timestamp, Body: body}
			r.Metrics.Requests++
			r.om.requests.Inc()
		} else {
			// Cases 2 and 3: a retransmission (t == t') or a stale
			// request (t < t') — acknowledge the new sequence number
			// with the cached timestamp and reply body.
			entry = wire.Reply{View: proof.View, Seq: proof.Seq, Client: req.Client, Timestamp: rs.timestamp, Body: rs.body}
			r.Metrics.Retransmits++
			r.om.retransmits.Inc()
		}
		entries = append(entries, entry)
	}
	r.om.replyCache.Set(int64(len(r.replies)))
	if len(entries) == 0 {
		return // null batch (view-change filler)
	}
	r.emitBundle(entries, now)
}

// execute runs one request through sealing and the state machine.
func (r *Replica) execute(req *wire.Request, nd types.NonDet) []byte {
	op := req.Op
	if r.cfg.Seals != nil {
		s := r.cfg.Seals[req.Client]
		if s == nil {
			return nil
		}
		plain, err := s.OpenRequest(op)
		if err != nil {
			// Deterministically reject: every correct replica sees the
			// same ciphertext and produces the same refusal.
			return s.SealReply(req.Client, req.Timestamp, []byte("ERR: unreadable request"))
		}
		body := r.executeOps(plain, nd)
		return s.SealReply(req.Client, req.Timestamp, body)
	}
	return r.executeOps(op, nd)
}

// executeOps applies one request body to the state machine. A multi-op
// envelope (client-side batching) is unpacked and each operation executed
// in envelope order, their replies packed into one matching reply envelope
// so the whole batch travels inside a single certified reply entry; any
// other body is a single opaque operation.
func (r *Replica) executeOps(body []byte, nd types.NonDet) []byte {
	ops, ok := wire.UnpackOps(body)
	if !ok {
		return r.app.Execute(body, nd)
	}
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		bodies[i] = r.app.Execute(op, nd)
	}
	r.Metrics.MultiOps += uint64(len(ops))
	return wire.PackOpReplies(bodies)
}

// emitBundle signs (or attests) the reply bundle and sends the share. A
// threshold share goes out bare; its proof is computed only if a combiner
// asks for it (onProofRequest).
func (r *Replica) emitBundle(entries []wire.Reply, now types.Time) {
	digest := wire.BundleDigest(entries)
	out := &wire.ExecReply{Entries: entries, Executor: r.cfg.ID}
	var sh *threshold.SigShare
	if r.cfg.ReplyMode == replycert.ModeThreshold {
		sh = r.cfg.ThresholdShare.Share(digest)
		out.Share = sh.Marshal()
	} else {
		dests := append([]types.NodeID(nil), r.top.Agreement...)
		for i := range entries {
			dests = append(dests, entries[i].Client)
		}
		att, err := r.cfg.ReplyAuth.Attest(auth.KindReply, digest, dests)
		if err != nil {
			return
		}
		out.Att = att
	}
	sent := &sentShare{seq: entries[0].Seq, data: wire.Marshal(out)}
	if sh != nil {
		sent.entries, sent.digest, sent.share = entries, digest, sh
	}
	for i := range entries {
		r.lastOut[entries[i].Client] = sent
	}
	if r.recovering {
		// WAL replay rebuilds the share cache only: these replies were
		// already sent in a previous life, and the agreement cluster's
		// retransmissions (its queue re-drives replayed batches as Order
		// resends) will pull them from lastOut via resendCached.
		return
	}
	r.span(now, obs.StageReply, entries[0].Seq, fmt.Sprintf("entries=%d", len(entries)))
	for _, d := range r.cfg.ReplyDests {
		r.send(d, sent.data)
	}
	if r.cfg.DirectReplyToClients {
		told := make(map[types.NodeID]bool)
		for i := range entries {
			c := entries[i].Client
			if !told[c] {
				told[c] = true
				r.send(c, sent.data)
			}
		}
	}
}

// resendCached retransmits the last reply shares for an old order's clients.
func (r *Replica) resendCached(m *wire.Order) {
	sent := make(map[*sentShare]bool)
	for i := range m.Requests {
		out := r.lastOut[m.Requests[i].Client]
		if out == nil || sent[out] {
			continue
		}
		sent[out] = true
		for _, d := range r.cfg.ReplyDests {
			r.send(d, out.data)
		}
		if r.cfg.DirectReplyToClients {
			r.send(m.Requests[i].Client, out.data)
		}
	}
}

// onProofRequest answers a combiner whose held shares failed to combine with
// the proven encoding of this replica's share of the named bundle, sent to
// that combiner alone. The proof is computed once per bundle and cached, so
// however often and by whomever it is asked, a bundle costs at most one
// proof. Requests from nodes that are not reply destinations, and for
// bundles that are unknown or no longer the named client's last, are
// ignored.
func (r *Replica) onProofRequest(from types.NodeID, m *wire.ProofRequest) {
	out := r.lastOut[m.Client]
	if out == nil || out.share == nil || out.digest != m.Bundle || !slices.Contains(r.cfg.ReplyDests, from) {
		return
	}
	if out.proven == nil {
		if err := r.cfg.ThresholdShare.Prove(r.cfg.ShareRand, out.digest, out.share); err != nil {
			return
		}
		out.proven = wire.Marshal(&wire.ExecReply{Entries: out.entries, Executor: r.cfg.ID, Share: out.share.Marshal()})
		r.Metrics.ShareProofs++
		r.om.shareProofs.Inc()
	}
	r.send(from, out.proven)
}

// --- checkpoints -----------------------------------------------------------------

// makeCheckpoint snapshots application state plus the reply table and shares
// a signed digest with the cluster (§3.3.2).
func (r *Replica) makeCheckpoint(n types.SeqNum) {
	// Bound the reply table before snapshotting it. Checkpoint creation is
	// a deterministic function of the executed log — unlike stability,
	// which depends on message timing — so every correct replica prunes
	// the same entries and digests still match.
	if ret := r.cfg.ReplyRetention; ret > 0 {
		for id, rs := range r.replies {
			if rs.seq+ret < n {
				delete(r.replies, id)
				delete(r.lastOut, id)
			}
		}
	}
	payload := r.marshalCheckpoint()
	digest := types.DigestBytes(payload)
	r.ckptLocal[n] = payload
	r.Metrics.Checkpoints++
	r.om.checkpoints.Inc()
	r.om.ckptBytes.Observe(float64(len(payload)))
	r.om.replyCache.Set(int64(len(r.replies)))
	att, err := r.cfg.ExecAuth.Attest(auth.KindExecCheckpoint, wire.CheckpointDigest(n, digest), r.top.Execution)
	if err != nil {
		return
	}
	cm := wire.ExecCheckpoint{Seq: n, State: digest, Executor: r.cfg.ID, Att: att}
	r.recordCheckpointVote(cm)
	data := wire.Marshal(&cm)
	for _, id := range r.top.Execution {
		if id != r.cfg.ID {
			r.send(id, data)
		}
	}
}

func (r *Replica) onCheckpoint(m *wire.ExecCheckpoint, now types.Time) {
	if m.Seq <= r.stableSeq || m.Executor != m.Att.Node {
		return
	}
	role, _, ok := r.top.RoleOf(m.Executor)
	if !ok || role != types.RoleExecution {
		return
	}
	if r.cfg.ExecAuth.Verify(auth.KindExecCheckpoint, wire.CheckpointDigest(m.Seq, m.State), m.Att) != nil {
		return
	}
	r.recordCheckpointVote(*m)
}

func (r *Replica) recordCheckpointVote(m wire.ExecCheckpoint) {
	votes := r.ckptVotes[m.Seq]
	if votes == nil {
		votes = make(map[types.NodeID]wire.ExecCheckpoint)
		r.ckptVotes[m.Seq] = votes
	}
	votes[m.Executor] = m
	count := 0
	for _, v := range votes {
		if v.State == m.State {
			count++
		}
	}
	// g+1 matching digests prove stability: at least one is from a
	// correct replica, and correct replicas agree.
	if count >= r.g+1 {
		r.makeStable(m.Seq, m.State, votes)
	}
}

func (r *Replica) makeStable(n types.SeqNum, digest types.Digest, votes map[types.NodeID]wire.ExecCheckpoint) {
	if n <= r.stableSeq {
		return
	}
	atts := make([]auth.Attestation, 0, r.g+1)
	ids := make([]types.NodeID, 0, len(votes))
	for id, v := range votes {
		if v.State == digest {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		atts = append(atts, votes[id].Att)
	}
	r.stableSeq = n
	r.stableDig = digest
	r.stableAtts = atts
	r.om.stableSeq.Set(int64(n))
	// Garbage collection (§3.3.2): older certificates, checkpoints, votes.
	for seq := range r.proofs {
		if seq <= n {
			delete(r.proofs, seq)
		}
	}
	for seq := range r.pending {
		if seq <= n {
			delete(r.pending, seq)
		}
	}
	r.om.queueDepth.Set(int64(len(r.pending)))
	for seq := range r.ckptVotes {
		if seq <= n {
			delete(r.ckptVotes, seq)
		}
	}
	for seq := range r.ckptLocal {
		if seq < n {
			delete(r.ckptLocal, seq)
		}
	}
	// Last-reply-share cache entries strictly below the watermark can no
	// longer be demanded by agreement-cluster retransmissions that matter:
	// a client still waiting on one would drive a fresh proposal, which
	// re-answers from the reply table. Dropping them bounds the cache.
	for c, out := range r.lastOut {
		if out.seq < n {
			delete(r.lastOut, c)
		}
	}
	// Durability: persist the now-stable checkpoint with its proof, then
	// let the WAL shed segments the checkpoint supersedes.
	r.persistStable(n)
	// If stability ran ahead of local execution we must state-transfer.
	if r.maxN < n {
		if _, ok := r.ckptLocal[n]; !ok {
			r.Metrics.StateTransfer++
			r.om.stateTransfers.Inc()
			r.broadcastExec(wire.Marshal(&wire.CheckpointFetch{Seq: n, Executor: r.cfg.ID}))
		}
	}
}

// persistStable writes the stable checkpoint (payload + g+1 attestation
// proof) to the store, if the payload is locally available, and prunes WAL
// segments it supersedes. Safe to call repeatedly; the store dedups by
// sequence number.
func (r *Replica) persistStable(n types.SeqNum) {
	if r.cfg.Store == nil || r.storeErr != nil || n != r.stableSeq {
		return
	}
	payload, ok := r.ckptLocal[n]
	if !ok {
		return // state ran ahead; onCheckpointData persists once fetched
	}
	proof := wire.Marshal(&wire.StableProof{Seq: n, State: r.stableDig, Atts: r.stableAtts})
	err := r.cfg.Store.SaveCheckpoint(storage.Checkpoint{
		Seq: n, Digest: r.stableDig, Proof: proof, Payload: payload,
	})
	if err == nil {
		err = r.cfg.Store.Prune(n)
	}
	if err != nil {
		r.storeErr = err
	}
}

// marshalCheckpoint serializes app state + reply table, canonically.
func (r *Replica) marshalCheckpoint() []byte {
	var w wire.Writer
	w.Bytes(r.app.Checkpoint())
	ids := make([]types.NodeID, 0, len(r.replies))
	for id := range r.replies {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Len(len(ids))
	for _, id := range ids {
		rs := r.replies[id]
		w.Node(id)
		w.TS(rs.timestamp)
		w.Seq(rs.seq)
		w.Bytes(rs.body)
	}
	return w.B
}

func (r *Replica) restoreCheckpoint(payload []byte) error {
	rd := wire.NewReader(payload)
	appState := rd.Bytes()
	n := rd.SliceLen()
	replies := make(map[types.NodeID]*replyState, n)
	for i := 0; i < n; i++ {
		id := rd.Node()
		replies[id] = &replyState{timestamp: rd.TS(), seq: rd.Seq(), body: rd.Bytes()}
	}
	if rd.Err() != nil || rd.Remaining() != 0 {
		return fmt.Errorf("execnode: malformed checkpoint payload")
	}
	if err := r.app.Restore(appState); err != nil {
		return err
	}
	r.replies = replies
	return nil
}

// --- gap filling and state transfer -----------------------------------------------

func (r *Replica) broadcastExec(data []byte) {
	for _, id := range r.top.Execution {
		if id != r.cfg.ID {
			r.send(id, data)
		}
	}
}

// requestMissing asks peers for the first missing sequence number.
func (r *Replica) requestMissing(now types.Time) {
	if now < r.fetchDeadline {
		return
	}
	r.fetchDeadline = now + r.cfg.FetchRetry
	r.Metrics.Fetches++
	r.broadcastExec(wire.Marshal(&wire.FetchMissing{Seq: r.maxN + 1, Executor: r.cfg.ID}))
}

func (r *Replica) onFetchMissing(m *wire.FetchMissing, now types.Time) {
	role, _, ok := r.top.RoleOf(m.Executor)
	if !ok || role != types.RoleExecution {
		return
	}
	if proof, ok := r.proofs[m.Seq]; ok {
		r.send(m.Executor, wire.Marshal(proof))
		return
	}
	// The certificate is gone; if a newer checkpoint is provably stable,
	// point the peer at it (§3.3.1).
	if r.stableSeq >= m.Seq && len(r.stableAtts) > 0 {
		sp := &wire.StableProof{Seq: r.stableSeq, State: r.stableDig, Atts: r.stableAtts}
		r.send(m.Executor, wire.Marshal(sp))
	}
}

func (r *Replica) onStableProof(m *wire.StableProof, now types.Time) {
	if m.Seq <= r.maxN {
		return
	}
	allowed := make(map[types.NodeID]bool)
	for _, id := range r.top.Execution {
		allowed[id] = true
	}
	cd := wire.CheckpointDigest(m.Seq, m.State)
	if auth.CountDistinctPar(r.cfg.Verify, r.cfg.ExecAuth, auth.KindExecCheckpoint, cd, m.Atts, allowed) < r.g+1 {
		return
	}
	// Adopt the proof and fetch the payload.
	if m.Seq > r.stableSeq {
		r.stableSeq = m.Seq
		r.stableDig = m.State
		r.stableAtts = m.Atts
	}
	r.Metrics.StateTransfer++
	r.broadcastExec(wire.Marshal(&wire.CheckpointFetch{Seq: m.Seq, Executor: r.cfg.ID}))
}

func (r *Replica) onCheckpointFetch(m *wire.CheckpointFetch, now types.Time) {
	role, _, ok := r.top.RoleOf(m.Executor)
	if !ok || role != types.RoleExecution {
		return
	}
	if payload, ok := r.ckptLocal[m.Seq]; ok {
		r.send(m.Executor, wire.Marshal(&wire.CheckpointData{
			Seq: m.Seq, State: types.DigestBytes(payload), Payload: payload,
		}))
	}
}

func (r *Replica) onCheckpointData(m *wire.CheckpointData, now types.Time) {
	if m.Seq <= r.maxN || m.Seq != r.stableSeq || m.State != r.stableDig {
		return
	}
	if types.DigestBytes(m.Payload) != m.State {
		return
	}
	if err := r.restoreCheckpoint(m.Payload); err != nil {
		return
	}
	r.ckptLocal[m.Seq] = m.Payload
	r.maxN = m.Seq
	// Drop anything the checkpoint supersedes, then resume.
	for seq := range r.proofs {
		if seq <= m.Seq {
			delete(r.proofs, seq)
		}
	}
	for seq := range r.pending {
		if seq <= m.Seq {
			delete(r.pending, seq)
		}
	}
	// A state transfer that filled in the stable payload completes the
	// deferred persist from makeStable.
	r.persistStable(m.Seq)
	r.executeReady(now)
}

// --- durable recovery --------------------------------------------------------------

// Recover restores the replica from its store after a restart: the newest
// checkpoint whose g+1 attestations and digest verify, then the WAL tail
// replayed through the normal verify-and-execute path (onOrderProof).
// Anything newer than the log is fetched from peers by the existing
// catch-up protocol once the replica is back online. Unverifiable
// checkpoints and records are skipped, never fatal: a replica with a
// damaged disk restarts empty and state-transfers.
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
	allowed := make(map[types.NodeID]bool, len(r.top.Execution))
	for _, id := range r.top.Execution {
		allowed[id] = true
	}
	for _, ck := range cks { // newest first; take the first that verifies
		if types.DigestBytes(ck.Payload) != ck.Digest {
			continue
		}
		msg, err := wire.Unmarshal(ck.Proof)
		if err != nil {
			continue
		}
		sp, ok := msg.(*wire.StableProof)
		if !ok || sp.Seq != ck.Seq || sp.State != ck.Digest {
			continue
		}
		cd := wire.CheckpointDigest(ck.Seq, ck.Digest)
		if auth.CountDistinctPar(r.cfg.Verify, r.cfg.ExecAuth, auth.KindExecCheckpoint, cd, sp.Atts, allowed) < r.g+1 {
			continue
		}
		if err := r.restoreCheckpoint(ck.Payload); err != nil {
			continue
		}
		r.maxN = ck.Seq
		r.stableSeq, r.stableDig, r.stableAtts = ck.Seq, ck.Digest, sp.Atts
		r.ckptLocal[ck.Seq] = ck.Payload
		break
	}
	// Replay the tail. Records are self-proving OrderProofs; feeding them
	// through the untrusted receive path re-verifies every attestation, so
	// a tampered WAL can stall recovery but never corrupt state. The
	// pipeline bound is bypassed while recovering (r.recovering) because
	// replay is bounded by the log tail, not by live traffic.
	return st.Replay(r.maxN, func(kind storage.RecordKind, seq types.SeqNum, payload []byte) error {
		if kind != storage.RecOrder || seq <= r.maxN {
			return nil
		}
		msg, err := wire.Unmarshal(payload)
		if err != nil {
			return nil // CRC-clean but unparsable: skip, catch up instead
		}
		if proof, ok := msg.(*wire.OrderProof); ok {
			r.onOrderProof(proof, now)
		}
		return nil
	})
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

// Tick retries gap-filling while a gap persists.
func (r *Replica) Tick(now types.Time) {
	gap := false
	for seq := range r.pending {
		if seq > r.maxN+1 {
			gap = true
			break
		}
	}
	if _, haveNext := r.proofs[r.maxN+1]; haveNext {
		gap = false
	}
	if gap || (r.stableSeq > r.maxN) {
		r.requestMissing(now)
	}
}
