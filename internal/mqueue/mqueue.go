// Package mqueue implements the replicated message queue of §3.2.1 — the
// local "state machine" each agreement replica installs into the agreement
// engine in place of the application.
//
// When the engine "executes" a batch, the queue stores the request and
// agreement certificates in pendingSends, forwards them toward the execution
// cluster (directly, or into the privacy firewall), and retransmits with
// exponential backoff until a valid reply certificate for an equal-or-higher
// sequence number arrives. Replies are relayed to clients and cached per
// client for retransmission handling (cache_c). A pipeline depth P bounds
// outstanding work: insert(n) is refused until a reply ≥ n−P has been seen,
// which the engine observes as backpressure.
package mqueue

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/auth"
	"repro/internal/replycert"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config parameterizes a queue instance.
type Config struct {
	ID       types.NodeID
	Topology *types.Topology

	// OrderAuth attests this replica's piece of the agreement certificate
	// toward the execution cluster (MAC vector or signature).
	OrderAuth auth.Scheme
	// Verifier validates reply certificates and executor shares.
	Verifier *replycert.Verifier

	// Dests receives order messages: the execution cluster, or the
	// bottom firewall row when the privacy firewall is deployed.
	Dests []types.NodeID

	Pipeline          int        // P: max outstanding sequence numbers
	RetransmitInitial types.Time // first retransmission timeout (then doubles)
}

func (c *Config) fillDefaults() {
	if c.Pipeline == 0 {
		c.Pipeline = 32
	}
	if c.RetransmitInitial == 0 {
		c.RetransmitInitial = types.Millisecond(40)
	}
}

// pendingSend is one inserted batch awaiting its reply certificate.
type pendingSend struct {
	order    *wire.Order
	deadline types.Time
	interval types.Time
}

// Queue is one agreement replica's message queue instance. It implements
// pbft.App; reply traffic is fed in through OnExecReply/OnReplyCert and
// timers through Tick.
type Queue struct {
	cfg         Config
	send        transport.Sender
	top         *types.Topology
	maxN        types.SeqNum // highest sequence number inserted
	lastReplied types.SeqNum // highest sequence number with a valid reply
	pending     map[types.SeqNum]*pendingSend
	assembler   *replycert.Assembler
	cache       map[types.NodeID]*wire.ReplyCert // cache_c, newest per client

	syncWaiting bool
	syncSeq     types.SeqNum
	syncDone    func(types.Digest, []byte)

	// Metrics counts externally observable queue activity.
	Metrics Metrics
}

// Metrics aggregates counters exposed for tests and benchmarks.
type Metrics struct {
	Inserted      uint64
	Retransmits   uint64
	RepliesSent   uint64
	CacheHits     uint64
	CertsAccepted uint64
	// SharesRejected counts executor shares refused or evicted by the
	// assembler, and those whose named executor was not their sender.
	SharesRejected uint64
}

// New constructs a queue instance.
func New(cfg Config, send transport.Sender) (*Queue, error) {
	cfg.fillDefaults()
	if cfg.Topology == nil {
		return nil, fmt.Errorf("mqueue: nil topology")
	}
	if len(cfg.Dests) == 0 {
		return nil, fmt.Errorf("mqueue: no destinations configured")
	}
	return &Queue{
		cfg:       cfg,
		send:      send,
		top:       cfg.Topology,
		pending:   make(map[types.SeqNum]*pendingSend),
		assembler: replycert.NewAssembler(cfg.Verifier),
		cache:     make(map[types.NodeID]*wire.ReplyCert),
	}, nil
}

// MaxN returns the highest inserted sequence number.
func (q *Queue) MaxN() types.SeqNum { return q.maxN }

// LastReplied returns the highest replied sequence number.
func (q *Queue) LastReplied() types.SeqNum { return q.lastReplied }

// PendingLen returns the number of batches awaiting replies.
func (q *Queue) PendingLen() int { return len(q.pending) }

// --- pbft.App ----------------------------------------------------------------

// Execute is msgQueue.insert: store certificates, forward toward execution,
// arm the retransmission timer.
func (q *Queue) Execute(v types.View, n types.SeqNum, nd types.NonDet, reqs []wire.Request, now types.Time) {
	if n <= q.maxN {
		return
	}
	q.maxN = n
	q.Metrics.Inserted++
	od := wire.OrderDigest(v, n, wire.BatchDigest(reqs), nd)
	att, err := q.cfg.OrderAuth.Attest(auth.KindOrder, od, q.top.Execution)
	if err != nil {
		return
	}
	order := &wire.Order{View: v, Seq: n, ND: nd, Requests: reqs, Replica: q.cfg.ID, Att: att}
	ps := &pendingSend{order: order, interval: q.cfg.RetransmitInitial}
	ps.deadline = now + ps.interval
	q.pending[n] = ps
	q.sendOrder(ps)
}

func (q *Queue) sendOrder(ps *pendingSend) {
	data := wire.Marshal(ps.order)
	for _, d := range q.cfg.Dests {
		q.send(d, data)
	}
}

// ResendReply is msgQueue.retryHint: answer a client retransmission from
// cache_c, or retransmit the in-flight certificates, or report false so the
// engine re-proposes the request (§3.2.1).
func (q *Queue) ResendReply(req *wire.Request, now types.Time) bool {
	if cert, ok := q.cache[req.Client]; ok {
		for i := range cert.Entries {
			e := &cert.Entries[i]
			if e.Client == req.Client && e.Timestamp >= req.Timestamp {
				q.send(req.Client, wire.Marshal(cert))
				q.Metrics.CacheHits++
				return true
			}
		}
	}
	for _, ps := range q.pending {
		for i := range ps.order.Requests {
			r := &ps.order.Requests[i]
			if r.Client == req.Client && r.Timestamp == req.Timestamp {
				q.sendOrder(ps)
				q.Metrics.Retransmits++
				return true
			}
		}
	}
	return false
}

// Sync is msgQueue.sync(): hold the done callback until every inserted batch
// has been acknowledged by a reply certificate, then emit the queue state.
// cache_c deliberately stays out of the checkpoint (it may differ across
// replicas, §3.2.1).
func (q *Queue) Sync(n types.SeqNum, done func(types.Digest, []byte)) {
	q.syncWaiting = true
	q.syncSeq = n
	q.syncDone = done
	q.maybeFinishSync()
}

func (q *Queue) maybeFinishSync() {
	if !q.syncWaiting || len(q.pending) != 0 || q.lastReplied < q.syncSeq {
		return
	}
	q.syncWaiting = false
	done := q.syncDone
	q.syncDone = nil
	payload := q.marshalState()
	done(types.DigestBytes(payload), payload)
}

func (q *Queue) marshalState() []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(q.maxN))
	binary.BigEndian.PutUint64(b[8:16], uint64(q.lastReplied))
	return b[:]
}

// Restore adopts a checkpointed queue state during state transfer.
func (q *Queue) Restore(n types.SeqNum, digest types.Digest, payload []byte) error {
	if len(payload) != 16 {
		return fmt.Errorf("mqueue: malformed checkpoint payload (%d bytes)", len(payload))
	}
	q.maxN = types.SeqNum(binary.BigEndian.Uint64(payload[0:8]))
	q.lastReplied = types.SeqNum(binary.BigEndian.Uint64(payload[8:16]))
	q.pending = make(map[types.SeqNum]*pendingSend)
	q.assembler.GC(q.lastReplied)
	q.syncWaiting = false
	q.syncDone = nil
	return nil
}

// Busy reports pipeline backpressure: insert(n) must wait until a reply with
// sequence number at least n−P arrived (§3.1.2).
func (q *Queue) Busy(now types.Time) bool {
	if q.syncWaiting {
		return true
	}
	return q.maxN >= q.lastReplied+types.SeqNum(q.cfg.Pipeline)
}

// --- reply handling -------------------------------------------------------------

// OnExecReply accumulates one executor's share; when g+1 distinct executors
// vouch for a bundle, the certificate completes.
func (q *Queue) OnExecReply(m *wire.ExecReply, now types.Time) {
	before := q.assembler.Rejected
	cert, _ := q.assembler.Add(m)
	q.Metrics.SharesRejected += q.assembler.Rejected - before
	if cert != nil {
		q.acceptCert(cert, now)
	}
}

// OnReplyCert validates and applies a complete certificate (threshold
// certificates arriving from the firewall, or quorum certificates relayed by
// peers).
func (q *Queue) OnReplyCert(m *wire.ReplyCert, now types.Time) {
	if err := q.cfg.Verifier.VerifyCert(m); err != nil {
		return
	}
	q.acceptCert(m, now)
}

// acceptCert clears acknowledged work, relays replies to their clients, and
// refreshes cache_c.
func (q *Queue) acceptCert(cert *wire.ReplyCert, now types.Time) {
	q.Metrics.CertsAccepted++
	maxSeq := cert.MaxSeq()
	if maxSeq > q.lastReplied {
		q.lastReplied = maxSeq
	}
	// A reply for sequence n acknowledges everything at or below n
	// (§3.2.1: "for that request and for all requests with lower sequence
	// numbers").
	for n := range q.pending {
		if n <= maxSeq {
			delete(q.pending, n)
		}
	}
	q.assembler.GC(maxSeq)

	data := wire.Marshal(cert)
	clients := make(map[types.NodeID]bool)
	for i := range cert.Entries {
		clients[cert.Entries[i].Client] = true
	}
	ids := make([]types.NodeID, 0, len(clients))
	for id := range clients {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		q.send(id, data)
		q.Metrics.RepliesSent++
		q.cache[id] = cert
	}
	q.maybeFinishSync()
}

// Tick drives retransmission with exponential backoff.
func (q *Queue) Tick(now types.Time) {
	for _, ps := range q.pending {
		if now < ps.deadline {
			continue
		}
		q.sendOrder(ps)
		q.Metrics.Retransmits++
		ps.interval *= 2
		ps.deadline = now + ps.interval
	}
}
