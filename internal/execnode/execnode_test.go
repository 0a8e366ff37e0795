package execnode

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/apps/counter"
	"repro/internal/auth"
	"repro/internal/replycert"
	"repro/internal/seal"
	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

var top = &types.Topology{
	Agreement: []types.NodeID{0, 1, 2, 3},
	Execution: []types.NodeID{100, 101, 102},
	Clients:   []types.NodeID{1000, 1001, 1002},
}

type sentMsg struct {
	to  types.NodeID
	msg wire.Message
}

type capture struct{ sent []sentMsg }

func (c *capture) sender() func(types.NodeID, []byte) {
	return func(to types.NodeID, data []byte) {
		m, err := wire.Unmarshal(data)
		if err != nil {
			panic(err)
		}
		c.sent = append(c.sent, sentMsg{to, m})
	}
}

func (c *capture) repliesTo(to types.NodeID) []*wire.ExecReply {
	var out []*wire.ExecReply
	for _, s := range c.sent {
		if m, ok := s.msg.(*wire.ExecReply); ok && s.to == to {
			out = append(out, m)
		}
	}
	return out
}

func (c *capture) byType(mt wire.MsgType) []wire.Message {
	var out []wire.Message
	for _, s := range c.sent {
		if s.msg.Type() == mt {
			out = append(out, s.msg)
		}
	}
	return out
}

// world wires one execution replica with signature schemes for everyone.
type world struct {
	t       *testing.T
	schemes map[types.NodeID]*auth.SigScheme
	cap     *capture
	r       *Replica
	app     *counter.Counter
	ts      types.Timestamp
}

func newWorld(t *testing.T, mutate func(*Config)) *world {
	t.Helper()
	dir := auth.NewDirectory(nil)
	schemes := make(map[types.NodeID]*auth.SigScheme)
	privs := make(map[types.NodeID]ed25519.PrivateKey)
	for _, id := range top.AllNodes() {
		var seedB [ed25519.SeedSize]byte
		binary.BigEndian.PutUint32(seedB[:4], uint32(id))
		priv := ed25519.NewKeyFromSeed(seedB[:])
		privs[id] = priv
		dir.Add(id, priv.Public().(ed25519.PublicKey))
	}
	for _, id := range top.AllNodes() {
		schemes[id] = auth.NewSigScheme(id, privs[id], dir)
	}
	cap := &capture{}
	app := counter.New()
	cfg := Config{
		ID:                 100,
		Topology:           top,
		OrderAuth:          schemes[100],
		ReplyAuth:          schemes[100],
		ExecAuth:           schemes[100],
		ReplyMode:          replycert.ModeQuorum,
		ReplyDests:         top.Agreement,
		Pipeline:           8,
		CheckpointInterval: 4,
		FetchRetry:         types.Millisecond(10),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg, app, cap.sender())
	if err != nil {
		t.Fatal(err)
	}
	return &world{t: t, schemes: schemes, cap: cap, r: r, app: app}
}

// order builds agreement replica `from`'s order piece for seq n.
func (w *world) order(from types.NodeID, n types.SeqNum, reqs []wire.Request) *wire.Order {
	w.t.Helper()
	t := types.Timestamp(n * 1000)
	nd := types.NonDet{Time: t, Rand: types.ComputeNonDetRand(n, t)}
	o := &wire.Order{View: 0, Seq: n, ND: nd, Requests: reqs, Replica: from}
	att, err := w.schemes[from].Attest(auth.KindOrder, o.OrderDigest(), top.Execution)
	if err != nil {
		w.t.Fatal(err)
	}
	o.Att = att
	return o
}

// commit feeds 2f+1 order pieces for one batch.
func (w *world) commit(n types.SeqNum, reqs []wire.Request) {
	w.t.Helper()
	for _, a := range top.Agreement[:3] {
		w.r.Receive(a, w.order(a, n, reqs), 0)
	}
}

func (w *world) req(op string) wire.Request {
	w.ts++
	return wire.Request{Client: 1000, Timestamp: w.ts, Op: []byte(op)}
}

func TestExecutesWithQuorumOfOrders(t *testing.T) {
	w := newWorld(t, nil)
	r1 := w.req("inc")
	// One piece is not enough.
	w.r.Receive(0, w.order(0, 1, []wire.Request{r1}), 0)
	if w.r.MaxN() != 0 {
		t.Fatal("executed with a single order piece")
	}
	// Duplicate pieces from the same replica don't count.
	w.r.Receive(0, w.order(0, 1, []wire.Request{r1}), 0)
	if w.r.MaxN() != 0 {
		t.Fatal("duplicate pieces formed a certificate")
	}
	w.r.Receive(1, w.order(1, 1, []wire.Request{r1}), 0)
	w.r.Receive(2, w.order(2, 1, []wire.Request{r1}), 0)
	if w.r.MaxN() != 1 || w.app.Value() != 1 {
		t.Fatalf("maxN=%d counter=%d", w.r.MaxN(), w.app.Value())
	}
	// A bundle share went to every agreement node.
	for _, a := range top.Agreement {
		if len(w.cap.repliesTo(a)) != 1 {
			t.Errorf("agreement %v received %d reply shares", a, len(w.cap.repliesTo(a)))
		}
	}
}

func TestRejectsForgedOrderPieces(t *testing.T) {
	w := newWorld(t, nil)
	r1 := w.req("inc")
	good := w.order(0, 1, []wire.Request{r1})
	// Tamper with the batch after attestation.
	bad := *good
	bad.Requests = []wire.Request{{Client: 1000, Timestamp: 99, Op: []byte("evil")}}
	w.r.Receive(0, &bad, 0)
	// Forged replica id.
	bad2 := *good
	bad2.Replica = 1
	w.r.Receive(1, &bad2, 0)
	// Non-agreement sender.
	bad3 := *w.order(0, 1, []wire.Request{r1})
	bad3.Replica = 100
	w.r.Receive(100, &bad3, 0)
	if w.r.MaxN() != 0 || w.app.Value() != 0 {
		t.Error("forged order pieces led to execution")
	}
}

func TestOutOfOrderBuffering(t *testing.T) {
	w := newWorld(t, nil)
	r1, r2 := w.req("inc"), w.req("inc")
	w.commit(2, []wire.Request{r2})
	if w.r.MaxN() != 0 {
		t.Fatal("executed seq 2 before seq 1")
	}
	// The gap triggered a fetch.
	if len(w.cap.byType(wire.TFetchMissing)) == 0 {
		t.Error("gap did not trigger FetchMissing")
	}
	w.commit(1, []wire.Request{r1})
	if w.r.MaxN() != 2 || w.app.Value() != 2 {
		t.Fatalf("maxN=%d value=%d after filling the gap", w.r.MaxN(), w.app.Value())
	}
}

func TestExactlyOnceSemantics(t *testing.T) {
	w := newWorld(t, nil)
	r1 := w.req("inc")
	w.commit(1, []wire.Request{r1})
	if w.app.Value() != 1 {
		t.Fatal("setup failed")
	}
	// Case 2: same timestamp re-ordered under a new sequence number — the
	// cached reply is re-sent, the operation is NOT re-executed.
	w.commit(2, []wire.Request{r1})
	if w.app.Value() != 1 {
		t.Fatalf("retransmission re-executed: %d", w.app.Value())
	}
	if w.r.MaxN() != 2 {
		t.Fatal("retransmission did not advance the sequence number")
	}
	replies := w.cap.repliesTo(0)
	last := replies[len(replies)-1]
	if last.Entries[0].Seq != 2 || last.Entries[0].Timestamp != r1.Timestamp {
		t.Errorf("ack entry: %+v", last.Entries[0])
	}
	// Case 3: an older timestamp after a newer one — acknowledged with the
	// cached (newer) reply, not executed.
	r2 := w.req("inc")
	w.commit(3, []wire.Request{r2})
	if w.app.Value() != 2 {
		t.Fatal("fresh request did not execute")
	}
	w.commit(4, []wire.Request{r1}) // stale timestamp
	if w.app.Value() != 2 {
		t.Fatalf("stale request re-executed: %d", w.app.Value())
	}
	if w.r.Metrics.Retransmits != 2 {
		t.Errorf("retransmit acks = %d, want 2", w.r.Metrics.Retransmits)
	}
}

func TestOldSequenceResendsCachedReply(t *testing.T) {
	w := newWorld(t, nil)
	r1 := w.req("inc")
	w.commit(1, []wire.Request{r1})
	before := len(w.cap.repliesTo(0))
	// The agreement cluster retransmits order 1 (it missed the replies).
	w.r.Receive(0, w.order(0, 1, []wire.Request{r1}), 0)
	after := len(w.cap.repliesTo(0))
	if after != before+1 {
		t.Errorf("old order did not trigger a cached-reply resend (%d → %d)", before, after)
	}
	if w.app.Value() != 1 {
		t.Error("old order re-executed")
	}
}

func TestCheckpointStabilityAndGC(t *testing.T) {
	w := newWorld(t, nil) // CheckpointInterval = 4
	for n := types.SeqNum(1); n <= 4; n++ {
		w.commit(n, []wire.Request{w.req("inc")})
	}
	// The replica produced its own checkpoint share for seq 4.
	cks := w.cap.byType(wire.TExecCheckpoint)
	if len(cks) == 0 {
		t.Fatal("no checkpoint shares emitted")
	}
	own := cks[0].(*wire.ExecCheckpoint)
	if own.Seq != 4 {
		t.Fatalf("checkpoint at seq %d, want 4", own.Seq)
	}
	// Peer votes with the same digest make it stable.
	for _, peer := range []types.NodeID{101, 102} {
		att, err := w.schemes[peer].Attest(auth.KindExecCheckpoint, wire.CheckpointDigest(4, own.State), top.Execution)
		if err != nil {
			t.Fatal(err)
		}
		w.r.Receive(peer, &wire.ExecCheckpoint{Seq: 4, State: own.State, Executor: peer, Att: att}, 0)
	}
	if w.r.StableSeq() != 4 {
		t.Fatalf("stable = %d, want 4", w.r.StableSeq())
	}
	if len(w.r.proofs) != 0 {
		t.Errorf("order proofs not garbage collected: %d", len(w.r.proofs))
	}
	// Mismatching digests never stabilize.
	w2 := newWorld(t, nil)
	for n := types.SeqNum(1); n <= 4; n++ {
		w2.commit(n, []wire.Request{w2.req("inc")})
	}
	for _, peer := range []types.NodeID{101, 102} {
		forged := types.DigestBytes([]byte(fmt.Sprintf("forged-%d", peer)))
		att, _ := w2.schemes[peer].Attest(auth.KindExecCheckpoint, wire.CheckpointDigest(4, forged), top.Execution)
		w2.r.Receive(peer, &wire.ExecCheckpoint{Seq: 4, State: forged, Executor: peer, Att: att}, 0)
	}
	if w2.r.StableSeq() != 0 {
		t.Error("divergent checkpoint digests stabilized")
	}
}

func TestFetchMissingServesProofThenStableProof(t *testing.T) {
	w := newWorld(t, nil)
	w.commit(1, []wire.Request{w.req("inc")})
	// Peer asks for seq 1: served from the proof log.
	w.r.Receive(101, &wire.FetchMissing{Seq: 1, Executor: 101}, 0)
	found := false
	for _, s := range w.cap.sent {
		if p, ok := s.msg.(*wire.OrderProof); ok && s.to == 101 && p.Seq == 1 {
			found = true
			// The proof must carry a full certificate.
			if len(p.Atts) < 3 {
				t.Errorf("served proof has %d attestations", len(p.Atts))
			}
		}
	}
	if !found {
		t.Fatal("FetchMissing not served with an OrderProof")
	}
}

func TestOrderProofApplication(t *testing.T) {
	// A lagging replica catches up directly from a peer's OrderProof.
	w := newWorld(t, nil)
	w2 := newWorld(t, func(c *Config) { c.ID = 101; c.OrderAuth = nil })
	w2.r.cfg.OrderAuth = w2.schemes[101]

	r1 := wire.Request{Client: 1000, Timestamp: 1, Op: []byte("inc")}
	w.commit(1, []wire.Request{r1})
	proof := w.r.proofs[1]
	if proof == nil {
		t.Fatal("no stored proof")
	}
	w2.r.Receive(100, proof, 0)
	if w2.r.MaxN() != 1 || w2.app.Value() != 1 {
		t.Fatalf("proof application failed: maxN=%d value=%d", w2.r.MaxN(), w2.app.Value())
	}
	// A truncated proof (below quorum) must not apply.
	w3 := newWorld(t, func(c *Config) { c.ID = 102; c.OrderAuth = nil })
	w3.r.cfg.OrderAuth = w3.schemes[102]
	short := *proof
	short.Atts = proof.Atts[:2]
	w3.r.Receive(100, &short, 0)
	if w3.r.MaxN() != 0 {
		t.Error("sub-quorum proof applied")
	}
}

func TestStateTransferViaCheckpoint(t *testing.T) {
	// Replica A runs ahead and stabilizes; replica B restores from A's
	// checkpoint payload after seeing the stability proof.
	a := newWorld(t, nil)
	for n := types.SeqNum(1); n <= 4; n++ {
		a.commit(n, []wire.Request{a.req("inc")})
	}
	cks := a.cap.byType(wire.TExecCheckpoint)
	own := cks[0].(*wire.ExecCheckpoint)
	var atts []auth.Attestation
	atts = append(atts, own.Att)
	att101, _ := a.schemes[101].Attest(auth.KindExecCheckpoint, wire.CheckpointDigest(4, own.State), top.Execution)
	atts = append(atts, att101)

	b := newWorld(t, func(c *Config) { c.ID = 101; c.OrderAuth = nil; c.ExecAuth = nil })
	b.r.cfg.OrderAuth = b.schemes[101]
	b.r.cfg.ExecAuth = b.schemes[101]

	// B learns stability, asks for the payload.
	b.r.Receive(100, &wire.StableProof{Seq: 4, State: own.State, Atts: atts}, 0)
	if len(b.cap.byType(wire.TCheckpointFetch)) == 0 {
		t.Fatal("StableProof did not trigger a checkpoint fetch")
	}
	// A serves the payload; B restores.
	a.r.Receive(101, &wire.CheckpointFetch{Seq: 4, Executor: 101}, 0)
	var data *wire.CheckpointData
	for _, s := range a.cap.sent {
		if m, ok := s.msg.(*wire.CheckpointData); ok && s.to == 101 {
			data = m
		}
	}
	if data == nil {
		t.Fatal("checkpoint payload not served")
	}
	b.r.Receive(100, data, 0)
	if b.r.MaxN() != 4 || b.app.Value() != 4 {
		t.Fatalf("restored maxN=%d value=%d", b.r.MaxN(), b.app.Value())
	}
	// Tampered payloads are rejected.
	c := newWorld(t, func(cc *Config) { cc.ID = 102; cc.OrderAuth = nil; cc.ExecAuth = nil })
	c.r.cfg.OrderAuth = c.schemes[102]
	c.r.cfg.ExecAuth = c.schemes[102]
	c.r.Receive(100, &wire.StableProof{Seq: 4, State: own.State, Atts: atts}, 0)
	bad := *data
	bad.Payload = append([]byte(nil), data.Payload...)
	bad.Payload[0] ^= 1
	c.r.Receive(100, &bad, 0)
	if c.r.MaxN() != 0 {
		t.Error("tampered checkpoint restored")
	}
}

// thresholdWorld is a world whose replica signs replies with threshold
// share 1 of a dealt key, returned with the verifier for its shares.
func thresholdWorld(t *testing.T) (*world, *replycert.Verifier) {
	t.Helper()
	pub, shares, err := threshold.Deal(threshold.NewSeededReader("exec-test"), 512, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t, func(c *Config) {
		c.ReplyMode = replycert.ModeThreshold
		c.ThresholdShare = shares[0]
		c.ShareRand = threshold.NewSeededReader("exec-share")
	})
	return w, replycert.NewVerifier(replycert.ModeThreshold, top, nil, pub)
}

func TestThresholdShareEmission(t *testing.T) {
	w, v := thresholdWorld(t)
	w.commit(1, []wire.Request{w.req("inc")})
	replies := w.cap.repliesTo(0)
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	// The share goes out bare: it combines, but carries no proof.
	sh, err := threshold.UnmarshalSigShare(replies[0].Share)
	if err != nil {
		t.Fatalf("emitted share does not decode: %v", err)
	}
	if sh.HasProof() || v.VerifyShare(replies[0]) == nil {
		t.Fatal("emitted share carries a proof; executors prove only on request")
	}
	// Asked, the replica answers the requester alone with the proven share.
	w.r.Receive(2, &wire.ProofRequest{Bundle: wire.BundleDigest(replies[0].Entries), Client: 1000}, 0)
	toRequester := w.cap.repliesTo(2)
	if len(toRequester) != 2 || len(w.cap.sent) != len(top.Agreement)+1 {
		t.Fatalf("%d shares to the requester, %d messages in all; want the bare one, then one answer", len(toRequester), len(w.cap.sent))
	}
	if err := v.VerifyShare(toRequester[1]); err != nil {
		t.Fatalf("proven share invalid: %v", err)
	}
	if w.r.Metrics.ShareProofs != 1 {
		t.Errorf("proofs = %d, want 1", w.r.Metrics.ShareProofs)
	}
}

func TestRepeatedProofRequestYieldsOneProof(t *testing.T) {
	w, _ := thresholdWorld(t)
	reqs := []wire.Request{w.req("inc")}
	w.commit(1, reqs)
	bare := w.cap.repliesTo(0)[0]
	ask := &wire.ProofRequest{Bundle: wire.BundleDigest(bare.Entries), Client: 1000}
	// Every agreement replica asks, several times over.
	for round := 0; round < 3; round++ {
		for _, a := range top.Agreement {
			w.r.Receive(a, ask, types.Time(round))
		}
	}
	if w.r.Metrics.ShareProofs != 1 {
		t.Fatalf("%d proofs for one bundle, want 1", w.r.Metrics.ShareProofs)
	}
	for _, a := range top.Agreement {
		answers := w.cap.repliesTo(a)
		if len(answers) != 4 { // the bare share, then three answers
			t.Fatalf("replica %v received %d shares, want 4", a, len(answers))
		}
		if !bytes.Equal(wire.Marshal(answers[1]), wire.Marshal(answers[3])) {
			t.Fatal("repeated answers differ: the proof was computed again")
		}
	}
	// A retransmitted order still resends the bare bytes that were sent.
	w.r.Receive(top.Agreement[3], w.order(top.Agreement[3], 1, reqs), 0)
	if got := w.cap.repliesTo(0); !bytes.Equal(wire.Marshal(got[len(got)-1]), wire.Marshal(bare)) {
		t.Error("resendCached sent the proven share instead of the bytes first sent")
	}
	// Nodes that are not reply destinations, and other bundles, get nothing.
	before := len(w.cap.sent)
	w.r.Receive(1000, ask, 0)
	w.r.Receive(101, ask, 0)
	w.r.Receive(0, &wire.ProofRequest{Bundle: types.DigestBytes([]byte("other")), Client: 1000}, 0)
	w.r.Receive(0, &wire.ProofRequest{Bundle: ask.Bundle, Client: 1001}, 0)
	if len(w.cap.sent) != before || w.r.Metrics.ShareProofs != 1 {
		t.Errorf("%d messages sent for foreign or unknown requests", len(w.cap.sent)-before)
	}
}

func TestProofRequestForPrunedBundleIgnored(t *testing.T) {
	w, _ := thresholdWorld(t)
	w.commit(1, []wire.Request{w.req("inc")})
	first := w.cap.repliesTo(0)[0]
	// Client 1000's next request replaces its cached bundle.
	w.commit(2, []wire.Request{w.req("inc")})
	before := len(w.cap.sent)
	w.r.Receive(0, &wire.ProofRequest{Bundle: wire.BundleDigest(first.Entries), Client: 1000}, 0)
	if len(w.cap.sent) != before || w.r.Metrics.ShareProofs != 0 {
		t.Fatal("answered a proof request for a bundle no longer cached")
	}
	// And once a stable checkpoint prunes the cache, the latest goes too.
	for n := types.SeqNum(3); n <= 5; n++ {
		w.commit(n, []wire.Request{reqFrom(1001, types.Timestamp(n), "inc")})
	}
	digest := types.DigestBytes(w.r.ckpt.Local(4))
	w.vote(101, 4, digest)
	w.vote(102, 4, digest)
	if _, ok := w.r.lastOut[1000]; ok {
		t.Fatal("client 1000's bundle below the watermark was not pruned")
	}
	second := w.cap.repliesTo(0)[1]
	before = len(w.cap.sent)
	w.r.Receive(0, &wire.ProofRequest{Bundle: wire.BundleDigest(second.Entries), Client: 1000}, 0)
	if len(w.cap.sent) != before || w.r.Metrics.ShareProofs != 0 {
		t.Fatal("answered a proof request for a pruned bundle")
	}
}

func TestSealedExecution(t *testing.T) {
	sl, err := seal.New(seal.DeriveKey([]byte("m"), 1000))
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t, func(c *Config) {
		c.Seals = map[types.NodeID]*seal.Sealer{1000: sl}
	})
	sealed, err := sl.SealRequest(nil, []byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	w.commit(1, []wire.Request{{Client: 1000, Timestamp: 1, Op: sealed}})
	if w.app.Value() != 1 {
		t.Fatal("sealed request not executed")
	}
	reply := w.cap.repliesTo(0)[0].Entries[0]
	plain, err := sl.OpenReply(reply.Body)
	if err != nil {
		t.Fatalf("reply not sealed for the client: %v", err)
	}
	if string(plain) != "1" {
		t.Errorf("sealed reply = %q", plain)
	}
	// Undecryptable bodies yield a deterministic refusal, not divergence.
	w.commit(2, []wire.Request{{Client: 1000, Timestamp: 2, Op: []byte("not ciphertext")}})
	if w.app.Value() != 1 {
		t.Error("garbage ciphertext executed")
	}
	reply2 := w.cap.repliesTo(0)
	last := reply2[len(reply2)-1].Entries[0]
	plain2, err := sl.OpenReply(last.Body)
	if err != nil || string(plain2) != "ERR: unreadable request" {
		t.Errorf("refusal reply = %q err=%v", plain2, err)
	}
}

func TestPipelineBoundTriggersFetch(t *testing.T) {
	w := newWorld(t, nil) // Pipeline = 8
	// A far-future order is dropped but prompts gap filling.
	w.commit(100, []wire.Request{w.req("inc")})
	if w.r.MaxN() != 0 {
		t.Fatal("far-future order executed")
	}
	if len(w.r.pending) != 0 {
		t.Error("far-future order buffered past the pipeline bound")
	}
	if len(w.cap.byType(wire.TFetchMissing)) == 0 {
		t.Error("no fetch after out-of-window order")
	}
}

func TestConfigValidation(t *testing.T) {
	send := func(types.NodeID, []byte) {}
	if _, err := New(Config{Topology: top, ID: 0, ReplyDests: top.Agreement}, counter.New(), send); err == nil {
		t.Error("accepted an agreement node as executor")
	}
	if _, err := New(Config{Topology: top, ID: 100, ReplyMode: replycert.ModeThreshold, ReplyDests: top.Agreement}, counter.New(), send); err == nil {
		t.Error("accepted threshold mode without a key share")
	}
	if _, err := New(Config{Topology: top, ID: 100}, counter.New(), send); err == nil {
		t.Error("accepted config with no reply destinations")
	}
}
