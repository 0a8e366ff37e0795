// Package firewall implements the privacy firewall of §4: an (h+1)×(h+1)
// grid of filter nodes between the agreement and execution clusters that
// tolerates up to h Byzantine filters while guaranteeing both availability
// (one all-correct column always remains as a path) and confidentiality (one
// all-correct row — the "correct cut" — always filters what flows down).
//
// Filters pass request/agreement certificates up and reply certificates
// down. The per-sequence state table (null → seen → reply) ensures a filter
// multicasts at most one reply per request received from below, removing the
// reply-count covert channel; threshold signatures assembled at the top row
// make reply certificates byte-deterministic regardless of which correct
// executors answered, removing the membership-set covert channel (§4.2.2).
// Filters never see request or reply bodies in the clear: bodies are sealed
// between client and executors (§4.2.3).
package firewall

import (
	"fmt"

	"repro/internal/replycert"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config parameterizes one filter node.
type Config struct {
	ID       types.NodeID
	Topology *types.Topology

	// Row is this filter's grid row: 0 is adjacent to the agreement
	// cluster, h (top) is adjacent to the execution cluster.
	Row int

	// UpTargets receives certificates flowing up: the same-column filter
	// one row above (the paper's unicast optimization), or every
	// execution replica for the top row.
	UpTargets []types.NodeID
	// DownTargets receives reply certificates flowing down: every filter
	// one row below, or every agreement replica for row 0.
	DownTargets []types.NodeID

	// Verifier validates reply certificates (and, at the top row,
	// executor shares). Must be threshold-mode for the full covert-channel
	// guarantees; quorum mode is supported for experiments.
	Verifier *replycert.Verifier
	// TopRow filters assemble executor shares into certificates.
	TopRow bool

	// Pipeline bounds the state table: entries below maxN−P are dropped,
	// matching the agreement cluster's pipeline depth P (§4.1).
	Pipeline int

	// OrderedRelease enables the §4.3 covert-channel restriction: replies
	// are forwarded down in sequence-number order, so a compromised node
	// above the correct cut cannot signal by inducing gaps or reorderings
	// in the reply stream. Because legitimate gaps exist (null batches
	// from view changes produce no reply), a held reply is released
	// unconditionally after HoldMax — the paper notes such restrictions
	// approximate, but cannot fully achieve, determinism on an
	// asynchronous network.
	OrderedRelease bool
	HoldMax        types.Time
}

func (c *Config) fillDefaults() {
	if c.Pipeline == 0 {
		c.Pipeline = 32
	}
	if c.HoldMax == 0 {
		c.HoldMax = types.Millisecond(50)
	}
}

// seqState is one state_n entry.
type seqState struct {
	seen  bool
	reply *wire.ReplyCert
}

// Filter is one privacy-firewall node.
type Filter struct {
	cfg       Config
	send      transport.Sender
	maxN      types.SeqNum
	state     map[types.SeqNum]*seqState
	assembler *replycert.Assembler // top row only

	// ordered-release state (§4.3 restriction)
	lastReleased types.SeqNum
	held         map[types.SeqNum]*heldReply

	// Metrics counts externally observable filter activity.
	Metrics Metrics
}

type heldReply struct {
	cert *wire.ReplyCert
	at   types.Time
}

// Metrics aggregates counters exposed for tests and benchmarks.
type Metrics struct {
	ForwardedUp     uint64
	ForwardedDown   uint64
	RepliesStored   uint64
	SharesRejected  uint64
	CertsCombined   uint64
	DroppedOld      uint64
	DuplicatesDrops uint64
	HeldForOrder    uint64
	TimeoutReleases uint64
}

// New constructs a filter node.
func New(cfg Config, send transport.Sender) (*Filter, error) {
	cfg.fillDefaults()
	if cfg.Topology == nil {
		return nil, fmt.Errorf("firewall: nil topology")
	}
	if len(cfg.UpTargets) == 0 || len(cfg.DownTargets) == 0 {
		return nil, fmt.Errorf("firewall: filter %v has no up or down targets", cfg.ID)
	}
	f := &Filter{
		cfg:   cfg,
		send:  send,
		state: make(map[types.SeqNum]*seqState),
		held:  make(map[types.SeqNum]*heldReply),
	}
	if cfg.TopRow {
		f.assembler = replycert.NewAssembler(cfg.Verifier)
	}
	return f, nil
}

// MaxN returns the highest sequence number observed.
func (f *Filter) MaxN() types.SeqNum { return f.maxN }

// Deliver implements transport.Node.
func (f *Filter) Deliver(from types.NodeID, data []byte, now types.Time) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	f.Receive(from, msg, now)
}

// Receive dispatches one decoded message.
func (f *Filter) Receive(from types.NodeID, msg wire.Message, now types.Time) {
	switch m := msg.(type) {
	case *wire.Order:
		f.onOrder(m, now)
	case *wire.ExecReply:
		f.onExecReply(from, m, now)
	case *wire.ReplyCert:
		f.onReplyCert(m, now)
	}
}

// Tick implements transport.Node. At the top row it re-asks executors for
// share proofs still missing every replycert.ProofRetry. Under ordered
// release it also frees replies held past HoldMax (legitimate sequence gaps
// must not stall the stream forever).
func (f *Filter) Tick(now types.Time) {
	f.askProofs(now)
	if !f.cfg.OrderedRelease || len(f.held) == 0 {
		return
	}
	// Find the oldest held reply; if overdue, skip the gap up to it.
	var oldestSeq types.SeqNum
	var oldestAt types.Time
	for n, h := range f.held {
		if oldestSeq == 0 || n < oldestSeq {
			oldestSeq = n
			oldestAt = h.at
		}
	}
	if now-oldestAt >= f.cfg.HoldMax {
		f.lastReleased = oldestSeq - 1
		f.Metrics.TimeoutReleases++
		f.releaseReady()
	}
}

// releaseReady flushes consecutive held replies starting at lastReleased+1.
func (f *Filter) releaseReady() {
	for {
		h, ok := f.held[f.lastReleased+1]
		if !ok {
			return
		}
		delete(f.held, f.lastReleased+1)
		f.lastReleased++
		f.forwardDown(h.cert)
	}
}

func (f *Filter) entry(n types.SeqNum) *seqState {
	st := f.state[n]
	if st == nil {
		st = &seqState{}
		f.state[n] = st
	}
	return st
}

func (f *Filter) gc() {
	if f.maxN < types.SeqNum(f.cfg.Pipeline) {
		return
	}
	floor := f.maxN - types.SeqNum(f.cfg.Pipeline)
	for n := range f.state {
		if n < floor {
			delete(f.state, n)
		}
	}
	if f.assembler != nil {
		f.assembler.GC(floor)
	}
}

// tooOld implements the maxN−P admission rule.
func (f *Filter) tooOld(n types.SeqNum) bool {
	return f.maxN > types.SeqNum(f.cfg.Pipeline) && n < f.maxN-types.SeqNum(f.cfg.Pipeline)
}

// onOrder handles a request+agreement certificate flowing up (§4.1).
func (f *Filter) onOrder(m *wire.Order, now types.Time) {
	if f.tooOld(m.Seq) {
		f.Metrics.DroppedOld++
		return
	}
	if m.Seq > f.maxN {
		f.maxN = m.Seq
		f.gc()
	}
	st := f.entry(m.Seq)
	if st.reply != nil {
		// The reply is already known: answer from the state table
		// instead of disturbing the execution cluster.
		f.sendDown(st.reply, now)
		return
	}
	st.seen = true
	data := wire.Marshal(m)
	for _, t := range f.cfg.UpTargets {
		f.send(t, data)
	}
	f.Metrics.ForwardedUp++
}

// onExecReply handles an executor's share at the top row: combine g+1 into a
// certificate whose signature this filter verified itself. The assembler
// discards fabrications from Byzantine executors and counts them.
func (f *Filter) onExecReply(from types.NodeID, m *wire.ExecReply, now types.Time) {
	if f.assembler == nil {
		return // only the top row accepts raw shares
	}
	if m.Executor != from {
		// A share is attributed to the authenticated sender, never to whoever
		// the message names: no peer may fill another executor's slot.
		f.Metrics.SharesRejected++
		return
	}
	if len(m.Entries) > 0 && f.tooOld(m.Entries[0].Seq) {
		f.Metrics.DroppedOld++
		return
	}
	before := f.assembler.Rejected
	cert, _ := f.assembler.Add(m)
	f.Metrics.SharesRejected += f.assembler.Rejected - before
	f.askProofs(now)
	if cert == nil {
		return
	}
	f.Metrics.CertsCombined++
	f.acceptReply(cert, now)
}

// askProofs sends the share-proof requests the top row's assembler owes the
// executors (none unless a combination failed). They flow up only: nothing
// about them travels down through the grid.
func (f *Filter) askProofs(now types.Time) {
	if f.assembler == nil {
		return
	}
	for _, ask := range f.assembler.Asks(now) {
		f.send(ask.Executor, wire.Marshal(&ask.Req))
	}
}

// onReplyCert handles a complete certificate flowing down from the row
// above. Every filter re-verifies it: a Byzantine filter above the correct
// cut cannot push an unvouched-for byte past a correct filter. A certificate
// for a slot that already holds its reply can change nothing and is dropped
// before the signature check.
func (f *Filter) onReplyCert(m *wire.ReplyCert, now types.Time) {
	if f.redundant(m.MaxSeq()) {
		return
	}
	if f.cfg.Verifier.VerifyCert(m) != nil {
		f.Metrics.SharesRejected++
		return
	}
	f.acceptReply(m, now)
}

// acceptReply applies the state-table transition rules of §4.1: forward down
// exactly once, and only if the request has been seen from below.
func (f *Filter) acceptReply(cert *wire.ReplyCert, now types.Time) {
	n := cert.MaxSeq()
	if f.redundant(n) {
		return
	}
	st := f.entry(n)
	st.reply = cert
	f.Metrics.RepliesStored++
	// A reply before any request is stored, not volunteered: an unsolicited
	// reply from above must not create downward traffic.
	if st.seen {
		f.sendDown(cert, now)
	}
}

// redundant reports, and counts, a reply that cannot change the state table:
// its slot is below the admission window or already holds its reply (dedup —
// at most one multicast per request seen, §4.2.2).
func (f *Filter) redundant(n types.SeqNum) bool {
	if f.tooOld(n) {
		f.Metrics.DroppedOld++
		return true
	}
	if st := f.state[n]; st != nil && st.reply != nil {
		f.Metrics.DuplicatesDrops++
		return true
	}
	return false
}

// sendDown forwards a certificate toward the clients, in sequence order when
// the §4.3 restriction is enabled.
func (f *Filter) sendDown(cert *wire.ReplyCert, now types.Time) {
	if !f.cfg.OrderedRelease {
		f.forwardDown(cert)
		return
	}
	n := cert.MaxSeq()
	if n <= f.lastReleased {
		f.forwardDown(cert) // re-answer for an already-released sequence
		return
	}
	if _, dup := f.held[n]; dup {
		return
	}
	f.held[n] = &heldReply{cert: cert, at: now}
	f.Metrics.HeldForOrder++
	f.releaseReady()
}

func (f *Filter) forwardDown(cert *wire.ReplyCert) {
	data := wire.Marshal(cert)
	for _, t := range f.cfg.DownTargets {
		f.send(t, data)
	}
	f.Metrics.ForwardedDown++
}
