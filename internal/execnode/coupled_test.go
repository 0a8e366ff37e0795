package execnode

import (
	"testing"

	"repro/internal/apps/counter"
	"repro/internal/types"
	"repro/internal/wire"
)

// newCoupled wires a replica for agreement replica 0: the coupled baseline,
// driven through its pbft.App methods and replying to clients only.
func newCoupled(t *testing.T) *world {
	t.Helper()
	w := newWorld(t, func(c *Config) {
		c.ID = 0
		c.ReplyDests = nil
		c.DirectReplyToClients = true
	})
	w.r.cfg.ReplyAuth = w.schemes[0]
	return w
}

func TestCoupledConfig(t *testing.T) {
	send := func(types.NodeID, []byte) {}
	if _, err := New(Config{Topology: top, ID: 0, DirectReplyToClients: true}, counter.New(), send); err != nil {
		t.Errorf("refused a coupled replica: %v", err)
	}
	if _, err := New(Config{Topology: top, ID: 0, DirectReplyToClients: true, ReplyDests: top.Agreement}, counter.New(), send); err == nil {
		t.Error("accepted a coupled replica that replies to the agreement cluster")
	}
}

func TestCoupledExecuteAndResend(t *testing.T) {
	w := newCoupled(t)
	r1 := w.req("inc")
	w.r.Execute(0, 1, types.NonDet{}, []wire.Request{r1}, 0)
	if w.r.MaxN() != 1 || w.app.Value() != 1 {
		t.Fatalf("maxN=%d counter=%d", w.r.MaxN(), w.app.Value())
	}
	if len(w.cap.sent) != 1 || len(w.cap.repliesTo(r1.Client)) != 1 {
		t.Fatalf("sent %d messages, want one reply share to the client", len(w.cap.sent))
	}
	if !w.r.ResendReply(&r1, 0) || len(w.cap.repliesTo(r1.Client)) != 2 {
		t.Error("a retransmission of the executed request was not answered")
	}
	newer := w.req("inc")
	if w.r.ResendReply(&newer, 0) {
		t.Error("answered a request newer than the reply table holds")
	}
	// A re-ordered retransmission is acknowledged, not re-executed.
	w.r.Execute(0, 2, types.NonDet{}, []wire.Request{r1}, 0)
	if w.app.Value() != 1 || w.r.Metrics.Retransmits != 1 {
		t.Errorf("counter=%d retransmits=%d after a re-ordered retransmission", w.app.Value(), w.r.Metrics.Retransmits)
	}
}

func TestCoupledCheckpointRoundTrip(t *testing.T) {
	w := newCoupled(t)
	r1 := w.req("inc")
	w.r.Execute(0, 1, types.NonDet{}, []wire.Request{r1}, 0)
	var payload []byte
	w.r.Sync(1, func(_ types.Digest, p []byte) { payload = p })

	peer := newCoupled(t)
	if err := peer.r.Restore(1, types.DigestBytes(payload), payload); err != nil {
		t.Fatal(err)
	}
	if peer.r.MaxN() != 1 || peer.app.Value() != 1 {
		t.Fatalf("restored maxN=%d counter=%d", peer.r.MaxN(), peer.app.Value())
	}
	var again []byte
	peer.r.Sync(1, func(_ types.Digest, p []byte) { again = p })
	if string(again) != string(payload) {
		t.Error("a restored replica's checkpoint differs from its source")
	}
	if err := peer.r.Restore(1, types.Digest{}, append(payload, 0)); err == nil {
		t.Error("accepted a payload with trailing bytes")
	}
}

// TestCoupledRestoresLegacyPayload restores a checkpoint in the layout
// coupled replicas wrote before they shared the execution replica's reply
// table (app state, entry count, then per client: id, timestamp, body), and
// answers a retransmission from it.
func TestCoupledRestoresLegacyPayload(t *testing.T) {
	old := counter.New()
	old.Execute([]byte("add 7"), types.NonDet{})
	var wr wire.Writer
	wr.Bytes(old.Checkpoint())
	wr.Len(1)
	wr.Node(1000)
	wr.TS(5)
	wr.Bytes([]byte("7"))
	legacy := wr.B

	w := newCoupled(t)
	if err := w.r.Restore(8, types.DigestBytes(legacy), legacy); err != nil {
		t.Fatal(err)
	}
	if w.app.Value() != 7 || w.r.MaxN() != 8 {
		t.Fatalf("restored counter=%d maxN=%d, want 7 and 8", w.app.Value(), w.r.MaxN())
	}
	retx := wire.Request{Client: 1000, Timestamp: 5, Op: []byte("add 7")}
	w.r.Execute(0, 9, types.NonDet{}, []wire.Request{retx}, 0)
	if w.app.Value() != 7 {
		t.Fatalf("retransmission re-executed: counter=%d", w.app.Value())
	}
	replies := w.cap.repliesTo(1000)
	if len(replies) != 1 {
		t.Fatalf("%d replies to the client, want 1", len(replies))
	}
	if e := replies[0].Entries[0]; e.Timestamp != 5 || string(e.Body) != "7" {
		t.Errorf("reply entry ts=%d body=%q, want the cached 5/\"7\"", e.Timestamp, e.Body)
	}
	if err := w.r.Restore(8, types.Digest{}, append(legacy, 0)); err == nil {
		t.Error("accepted a legacy payload with trailing bytes")
	}
}
