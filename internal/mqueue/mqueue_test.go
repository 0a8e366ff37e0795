package mqueue

import (
	"testing"

	"repro/internal/auth"
	"repro/internal/replycert"
	"repro/internal/types"
	"repro/internal/wire"
)

var top = &types.Topology{
	Agreement: []types.NodeID{0, 1, 2, 3},
	Execution: []types.NodeID{100, 101, 102},
	Clients:   []types.NodeID{1000},
}

// sentMsg records one captured send.
type sentMsg struct {
	to  types.NodeID
	msg wire.Message
}

type capture struct {
	sent []sentMsg
}

func (c *capture) sender() func(types.NodeID, []byte) {
	return func(to types.NodeID, data []byte) {
		m, err := wire.Unmarshal(data)
		if err != nil {
			panic(err)
		}
		c.sent = append(c.sent, sentMsg{to, m})
	}
}

func (c *capture) ordersTo(to types.NodeID) []*wire.Order {
	var out []*wire.Order
	for _, s := range c.sent {
		if o, ok := s.msg.(*wire.Order); ok && s.to == to {
			out = append(out, o)
		}
	}
	return out
}

func (c *capture) certsTo(to types.NodeID) []*wire.ReplyCert {
	var out []*wire.ReplyCert
	for _, s := range c.sent {
		if m, ok := s.msg.(*wire.ReplyCert); ok && s.to == to {
			out = append(out, m)
		}
	}
	return out
}

type world struct {
	schemes map[types.NodeID]*auth.MACScheme
	cap     *capture
	q       *Queue
}

func newWorld(t *testing.T, mutate func(*Config)) *world {
	t.Helper()
	all := top.AllNodes()
	schemes := make(map[types.NodeID]*auth.MACScheme, len(all))
	for _, id := range all {
		schemes[id] = auth.NewMACScheme(auth.NewKeyRing([]byte("mq"), id, all))
	}
	cap := &capture{}
	cfg := Config{
		ID:                0,
		Topology:          top,
		OrderAuth:         schemes[0],
		Verifier:          replycert.NewVerifier(replycert.ModeQuorum, top, schemes[0], nil),
		Dests:             top.Execution,
		Pipeline:          4,
		RetransmitInitial: types.Millisecond(10),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	q, err := New(cfg, cap.sender())
	if err != nil {
		t.Fatal(err)
	}
	return &world{schemes: schemes, cap: cap, q: q}
}

func req(ts types.Timestamp) wire.Request {
	return wire.Request{Client: 1000, Timestamp: ts, Op: []byte("op")}
}

// reply builds an executor's quorum share for the queue under test.
func (w *world) reply(t *testing.T, exec types.NodeID, seq types.SeqNum, ts types.Timestamp) *wire.ExecReply {
	t.Helper()
	es := []wire.Reply{{View: 0, Seq: seq, Client: 1000, Timestamp: ts, Body: []byte("res")}}
	att, err := w.schemes[exec].Attest(auth.KindReply, wire.BundleDigest(es), append([]types.NodeID{1000}, top.Agreement...))
	if err != nil {
		t.Fatal(err)
	}
	return &wire.ExecReply{Entries: es, Executor: exec, Att: att}
}

func TestInsertSendsOrdersToExecutors(t *testing.T) {
	w := newWorld(t, nil)
	w.q.Execute(0, 1, types.NonDet{Time: 5}, []wire.Request{req(1)}, 0)
	for _, e := range top.Execution {
		orders := w.cap.ordersTo(e)
		if len(orders) != 1 {
			t.Fatalf("executor %v received %d orders, want 1", e, len(orders))
		}
		o := orders[0]
		if o.Seq != 1 || o.Replica != 0 || len(o.Requests) != 1 {
			t.Errorf("order fields: %+v", o)
		}
		// The attestation must verify at the executor.
		exScheme := w.schemes[e]
		if err := exScheme.Verify(auth.KindOrder, o.OrderDigest(), o.Att); err != nil {
			t.Errorf("executor %v cannot verify order: %v", e, err)
		}
	}
	if w.q.MaxN() != 1 || w.q.PendingLen() != 1 {
		t.Errorf("maxN=%d pending=%d", w.q.MaxN(), w.q.PendingLen())
	}
	// Duplicate insert of the same sequence number is ignored.
	w.q.Execute(0, 1, types.NonDet{Time: 5}, []wire.Request{req(1)}, 0)
	if w.q.PendingLen() != 1 {
		t.Error("duplicate insert buffered twice")
	}
}

func TestReplyCompletesAndForwardsToClient(t *testing.T) {
	w := newWorld(t, nil)
	w.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	w.q.OnExecReply(w.reply(t, 100, 1, 1), 0)
	if len(w.cap.certsTo(1000)) != 0 {
		t.Fatal("certificate forwarded before quorum")
	}
	w.q.OnExecReply(w.reply(t, 101, 1, 1), 0)
	certs := w.cap.certsTo(1000)
	if len(certs) != 1 {
		t.Fatalf("client received %d certificates, want 1", len(certs))
	}
	if w.q.PendingLen() != 0 || w.q.LastReplied() != 1 {
		t.Errorf("pending=%d lastReplied=%d", w.q.PendingLen(), w.q.LastReplied())
	}
}

func TestCumulativeAcknowledgement(t *testing.T) {
	w := newWorld(t, nil)
	for n := types.SeqNum(1); n <= 3; n++ {
		w.q.Execute(0, n, types.NonDet{}, []wire.Request{req(types.Timestamp(n))}, 0)
	}
	if w.q.PendingLen() != 3 {
		t.Fatalf("pending = %d", w.q.PendingLen())
	}
	// A reply for sequence 3 acknowledges 1 and 2 as well (§3.2.1).
	w.q.OnExecReply(w.reply(t, 100, 3, 3), 0)
	w.q.OnExecReply(w.reply(t, 101, 3, 3), 0)
	if w.q.PendingLen() != 0 {
		t.Errorf("pending after cumulative ack = %d, want 0", w.q.PendingLen())
	}
}

func TestBusyAtPipelineDepth(t *testing.T) {
	w := newWorld(t, nil) // Pipeline = 4
	for n := types.SeqNum(1); n <= 4; n++ {
		if w.q.Busy(0) {
			t.Fatalf("busy before pipeline full at n=%d", n)
		}
		w.q.Execute(0, n, types.NonDet{}, []wire.Request{req(types.Timestamp(n))}, 0)
	}
	if !w.q.Busy(0) {
		t.Fatal("not busy with P outstanding inserts")
	}
	// A reply frees the pipeline.
	w.q.OnExecReply(w.reply(t, 100, 4, 4), 0)
	w.q.OnExecReply(w.reply(t, 101, 4, 4), 0)
	if w.q.Busy(0) {
		t.Error("still busy after replies drained the pipeline")
	}
}

func TestResendReplyFromCache(t *testing.T) {
	w := newWorld(t, nil)
	w.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	w.q.OnExecReply(w.reply(t, 100, 1, 1), 0)
	w.q.OnExecReply(w.reply(t, 101, 1, 1), 0)
	before := len(w.cap.certsTo(1000))

	r := req(1)
	if !w.q.ResendReply(&r, 0) {
		t.Fatal("retryHint missed the cached reply")
	}
	if len(w.cap.certsTo(1000)) != before+1 {
		t.Error("cached certificate not resent to the client")
	}
	if w.q.Metrics.CacheHits != 1 {
		t.Errorf("cache hits = %d", w.q.Metrics.CacheHits)
	}
}

func TestResendReplyRetransmitsPending(t *testing.T) {
	w := newWorld(t, nil)
	w.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	before := len(w.cap.ordersTo(100))
	r := req(1)
	if !w.q.ResendReply(&r, 0) {
		t.Fatal("retryHint missed the pending request")
	}
	if len(w.cap.ordersTo(100)) != before+1 {
		t.Error("pending order not retransmitted")
	}
}

func TestResendReplyMissReturnsFalse(t *testing.T) {
	w := newWorld(t, nil)
	r := req(9)
	if w.q.ResendReply(&r, 0) {
		t.Error("retryHint claimed success with nothing cached or pending")
	}
}

func TestSyncWaitsForDrain(t *testing.T) {
	w := newWorld(t, nil)
	w.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	synced := false
	var digest types.Digest
	var payload []byte
	w.q.Sync(1, func(d types.Digest, p []byte) {
		synced = true
		digest, payload = d, p
	})
	if synced {
		t.Fatal("sync completed with a pending send outstanding")
	}
	if !w.q.Busy(0) {
		t.Error("queue not busy while awaiting sync")
	}
	w.q.OnExecReply(w.reply(t, 100, 1, 1), 0)
	w.q.OnExecReply(w.reply(t, 101, 1, 1), 0)
	if !synced {
		t.Fatal("sync did not complete after the pipeline drained")
	}
	if digest != types.DigestBytes(payload) {
		t.Error("sync digest does not cover the payload")
	}
	// Two replicas at the same point produce identical checkpoints.
	w2 := newWorld(t, func(c *Config) { c.ID = 1 })
	w2.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	w2.q.OnExecReply(w2.reply(t, 100, 1, 1), 0)
	w2.q.OnExecReply(w2.reply(t, 101, 1, 1), 0)
	var digest2 types.Digest
	w2.q.Sync(1, func(d types.Digest, p []byte) { digest2 = d })
	if digest2 != digest {
		t.Error("queue checkpoints diverge across replicas")
	}
}

func TestRestore(t *testing.T) {
	w := newWorld(t, nil)
	w.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	w.q.OnExecReply(w.reply(t, 100, 1, 1), 0)
	w.q.OnExecReply(w.reply(t, 101, 1, 1), 0)
	var payload []byte
	var digest types.Digest
	w.q.Sync(1, func(d types.Digest, p []byte) { digest, payload = d, p })

	w2 := newWorld(t, func(c *Config) { c.ID = 2 })
	if err := w2.q.Restore(1, digest, payload); err != nil {
		t.Fatal(err)
	}
	if w2.q.MaxN() != 1 || w2.q.LastReplied() != 1 || w2.q.PendingLen() != 0 {
		t.Errorf("restored state: maxN=%d lastReplied=%d pending=%d", w2.q.MaxN(), w2.q.LastReplied(), w2.q.PendingLen())
	}
	if err := w2.q.Restore(1, digest, []byte{1}); err == nil {
		t.Error("Restore accepted malformed payload")
	}
}

func TestTickRetransmitsWithBackoff(t *testing.T) {
	w := newWorld(t, nil)
	w.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	base := len(w.cap.ordersTo(100)) // 1 initial send

	w.q.Tick(types.Millisecond(5)) // before deadline
	if got := len(w.cap.ordersTo(100)); got != base {
		t.Fatalf("retransmitted before deadline: %d", got)
	}
	w.q.Tick(types.Millisecond(11)) // first retransmission
	if got := len(w.cap.ordersTo(100)); got != base+1 {
		t.Fatalf("first retransmission missing: %d", got)
	}
	// Interval doubled to 20ms: nothing at +15, fires by +35.
	w.q.Tick(types.Millisecond(15))
	if got := len(w.cap.ordersTo(100)); got != base+1 {
		t.Fatal("retransmitted before doubled deadline")
	}
	w.q.Tick(types.Millisecond(35))
	if got := len(w.cap.ordersTo(100)); got != base+2 {
		t.Fatal("second retransmission missing")
	}
	if w.q.Metrics.Retransmits != 2 {
		t.Errorf("retransmit metric = %d", w.q.Metrics.Retransmits)
	}
}

func TestInvalidCertIgnored(t *testing.T) {
	w := newWorld(t, nil)
	w.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	// A certificate with bogus attestations must not clear the pipeline.
	es := []wire.Reply{{Seq: 1, Client: 1000, Timestamp: 1, Body: []byte("forged")}}
	w.q.OnReplyCert(&wire.ReplyCert{
		Entries: es,
		Atts:    []auth.Attestation{{Node: 100, Proof: []byte("junk")}, {Node: 101, Proof: []byte("junk")}},
	}, 0)
	if w.q.PendingLen() != 1 || w.q.LastReplied() != 0 {
		t.Error("forged certificate affected queue state")
	}
	if len(w.cap.certsTo(1000)) != 0 {
		t.Error("forged certificate forwarded to the client")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Topology: top}, func(types.NodeID, []byte) {}); err == nil {
		t.Error("accepted config without destinations")
	}
	if _, err := New(Config{Dests: top.Execution}, func(types.NodeID, []byte) {}); err == nil {
		t.Error("accepted config without topology")
	}
}
