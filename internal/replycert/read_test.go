package replycert

import (
	"errors"
	"testing"

	"repro/internal/auth"
	"repro/internal/types"
	"repro/internal/wire"
)

const (
	readClient = types.NodeID(1000)
	readNonce  = types.Timestamp(7)
	// otherClient is a second client: answers addressed to it must never
	// certify readClient's read.
	otherClient = types.NodeID(1001)
)

// readWorld builds pairwise-MAC schemes for every node of testTop plus
// otherClient — the construction the system authenticates the read hop
// with.
func readWorld() map[types.NodeID]*auth.MACScheme {
	all := append(testTop.AllNodes(), otherClient)
	out := make(map[types.NodeID]*auth.MACScheme, len(all))
	for _, id := range all {
		out[id] = auth.NewMACScheme(auth.NewKeyRing([]byte("read-test"), id, all))
	}
	return out
}

// readReply builds one executor's answer to readClient's probe, MAC'd for
// readClient.
func readReply(t *testing.T, schemes map[types.NodeID]*auth.MACScheme, exec types.NodeID, seq types.SeqNum, body string, refused bool) *wire.ReadReply {
	t.Helper()
	m := &wire.ReadReply{
		Client:     readClient,
		Nonce:      readNonce,
		AppliedSeq: seq,
		Refused:    refused,
		Body:       []byte(body),
		Executor:   exec,
	}
	m.Att = attest(t, schemes[exec], m, readClient)
	return m
}

// attest MACs m's digest with scheme toward dests.
func attest(t *testing.T, scheme *auth.MACScheme, m *wire.ReadReply, dests ...types.NodeID) auth.Attestation {
	t.Helper()
	att, err := scheme.Attest(auth.KindReadReply, m.Digest(), dests)
	if err != nil {
		t.Fatal(err)
	}
	return att
}

func newReadWorld(t *testing.T, floor types.SeqNum) (map[types.NodeID]*auth.MACScheme, *ReadAssembler) {
	t.Helper()
	schemes := readWorld()
	v := NewReadVerifier(testTop, schemes[readClient])
	if v.Quorum != 2 {
		t.Fatalf("quorum = %d, want 2 (g+1 for 2g+1=3 executors)", v.Quorum)
	}
	return schemes, NewReadAssembler(v, readClient, readNonce, floor)
}

func TestReadQuorumCertifiesAtMinWatermark(t *testing.T) {
	schemes, a := newReadWorld(t, 0)

	res, err := a.Add(readReply(t, schemes, 100, 5, "v", false))
	if res != nil || err != nil {
		t.Fatalf("first reply: res=%v err=%v", res, err)
	}
	res, err = a.Add(readReply(t, schemes, 101, 3, "v", false))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("two matching replies did not certify")
	}
	if string(res.Body) != "v" || res.Refused {
		t.Fatalf("result = %q refused=%v", res.Body, res.Refused)
	}
	// The certified watermark is the smallest matching one: the matching
	// set holds at least one correct replica, so this floor is always
	// reachable again.
	if res.Seq != 3 {
		t.Fatalf("certified watermark = %d, want 3", res.Seq)
	}
	// Completion happens exactly once.
	res, err = a.Add(readReply(t, schemes, 102, 6, "v", false))
	if res != nil || err != nil {
		t.Error("third reply re-certified the read")
	}
	if !a.Done() {
		t.Error("assembler not done after certifying")
	}
}

func TestReadFloorExcludesStaleReplies(t *testing.T) {
	schemes, a := newReadWorld(t, 5)

	// A matching answer below the floor must not count toward the quorum,
	// no matter how many replicas send it.
	if res, err := a.Add(readReply(t, schemes, 100, 4, "stale", false)); res != nil || err != nil {
		t.Fatalf("stale reply: res=%v err=%v", res, err)
	}
	if res, err := a.Add(readReply(t, schemes, 101, 6, "stale", false)); res != nil || err != nil {
		t.Fatalf("one eligible reply certified alone: res=%v err=%v", res, err)
	}
	res, err := a.Add(readReply(t, schemes, 102, 7, "stale", false))
	if err != nil || res == nil {
		t.Fatalf("two eligible matching replies did not certify: res=%v err=%v", res, err)
	}
	if res.Seq != 6 {
		t.Fatalf("certified watermark = %d, want 6 (min of the eligible matches)", res.Seq)
	}
}

func TestReadMismatchIsDefiniteOnlyWhenAllAnswered(t *testing.T) {
	schemes, a := newReadWorld(t, 0)

	if _, err := a.Add(readReply(t, schemes, 100, 5, "a", false)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Add(readReply(t, schemes, 101, 5, "b", false)); err != nil {
		t.Fatalf("two divergent replies are not yet definite: %v", err)
	}
	_, err := a.Add(readReply(t, schemes, 102, 4, "c", false))
	if !errors.Is(err, ErrReadMismatch) {
		t.Fatalf("all executors answered without quorum: err=%v, want ErrReadMismatch", err)
	}
	// Hint is the (g+1)'th-highest watermark seen: 5.
	if hint := a.Hint(); hint != 5 {
		t.Fatalf("hint = %d, want 5", hint)
	}
}

func TestReadHintResistsByzantineInflation(t *testing.T) {
	schemes, a := newReadWorld(t, 0)

	// One Byzantine executor claims an absurd watermark; the hint must
	// still be anchored at a value some correct replica actually reached.
	a.Add(readReply(t, schemes, 100, 1_000_000, "forged", false))
	a.Add(readReply(t, schemes, 101, 5, "x", false))
	if _, err := a.Add(readReply(t, schemes, 102, 4, "y", false)); !errors.Is(err, ErrReadMismatch) {
		t.Fatalf("expected mismatch, got %v", err)
	}
	if hint := a.Hint(); hint != 5 {
		t.Fatalf("hint = %d, want 5 (the (g+1)'th-highest, not the Byzantine claim)", hint)
	}
}

func TestReadHintBelowQuorumFallsBackToFloor(t *testing.T) {
	schemes, a := newReadWorld(t, 9)
	a.Add(readReply(t, schemes, 100, 12, "v", false))
	if hint := a.Hint(); hint != 9 {
		t.Fatalf("hint with <g+1 replies = %d, want the probe floor 9", hint)
	}
}

func TestReadRejectsForgedAndForeignReplies(t *testing.T) {
	schemes, a := newReadWorld(t, 0)

	// Tampered body after attesting.
	m := readReply(t, schemes, 100, 5, "v", false)
	m.Body = []byte("tampered")
	if _, err := a.Add(m); err == nil {
		t.Error("tampered reply accepted")
	}
	// Tampered watermark after attesting (the attested digest covers it).
	m = readReply(t, schemes, 100, 5, "v", false)
	m.AppliedSeq = 50
	if _, err := a.Add(m); err == nil {
		t.Error("watermark-tampered reply accepted")
	}
	// Executor identity outside the execution cluster.
	m = readReply(t, schemes, 0, 5, "v", false)
	if _, err := a.Add(m); err == nil {
		t.Error("reply from a non-executor accepted")
	}
	// Reply answering someone else's probe.
	m = readReply(t, schemes, 100, 5, "v", false)
	m.Nonce = readNonce + 1
	m.Att = attest(t, schemes[100], m, readClient)
	if _, err := a.Add(m); err == nil {
		t.Error("reply for a different nonce accepted")
	}
	// Executor 101's MAC presented as executor 100's: only 100 and the
	// client share the key that slot is checked with.
	m = readReply(t, schemes, 100, 5, "v", false)
	m.Att = attest(t, schemes[101], m, readClient)
	m.Att.Node = 100
	if _, err := a.Add(m); err == nil {
		t.Error("executor 101's MAC accepted as executor 100's")
	}
	// An answer MAC'd for another client, relabelled and replayed: the
	// other client's slot is not this client's.
	m = readReply(t, schemes, 100, 5, "v", false)
	m.Client = otherClient
	m.Att = attest(t, schemes[100], m, otherClient)
	m.Client = readClient
	if _, err := a.Add(m); err == nil {
		t.Error("answer MAC'd for another client accepted")
	}
	// A vector with slots for everyone but this client.
	m = readReply(t, schemes, 100, 5, "v", false)
	m.Att = attest(t, schemes[100], m, otherClient, 101, 102)
	if _, err := a.Add(m); err == nil {
		t.Error("vector with no slot for this client accepted")
	}
	// None of the rejects may have registered a reply.
	if n := a.Replies(); n != 0 {
		t.Fatalf("rejected replies were recorded: %d", n)
	}
}

func TestReadDuplicateExecutorDoesNotCertify(t *testing.T) {
	schemes, a := newReadWorld(t, 0)
	if _, err := a.Add(readReply(t, schemes, 100, 5, "v", false)); err != nil {
		t.Fatal(err)
	}
	res, err := a.Add(readReply(t, schemes, 100, 5, "v", false))
	if res != nil || err != nil {
		t.Fatalf("duplicate from one executor: res=%v err=%v", res, err)
	}
	if a.Replies() != 1 {
		t.Fatalf("replies = %d, want 1", a.Replies())
	}
}

func TestReadRefusalsCertify(t *testing.T) {
	schemes, a := newReadWorld(t, 0)

	// Deterministic refusals are byte-identical across replicas, so g+1 of
	// them certify that the operation must fall back to full agreement.
	a.Add(readReply(t, schemes, 100, 5, "read refused: operation is not read-only", true))
	res, err := a.Add(readReply(t, schemes, 101, 6, "read refused: operation is not read-only", true))
	if err != nil || res == nil {
		t.Fatalf("matching refusals did not certify: res=%v err=%v", res, err)
	}
	if !res.Refused {
		t.Fatal("certified refusal not marked Refused")
	}
}
