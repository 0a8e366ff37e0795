package replycert

import (
	"sync"
	"testing"

	"repro/internal/auth"
	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

var testTop = &types.Topology{
	Agreement: []types.NodeID{0, 1, 2, 3},
	Execution: []types.NodeID{100, 101, 102},
	Clients:   []types.NodeID{1000},
}

// macWorld builds MAC schemes for every node over pairwise secrets.
func macWorld() map[types.NodeID]*auth.MACScheme {
	all := testTop.AllNodes()
	out := make(map[types.NodeID]*auth.MACScheme, len(all))
	for _, id := range all {
		out[id] = auth.NewMACScheme(auth.NewKeyRing([]byte("rc-test"), id, all))
	}
	return out
}

func entries(seq types.SeqNum) []wire.Reply {
	return []wire.Reply{{View: 0, Seq: seq, Client: 1000, Timestamp: 1, Body: []byte("r")}}
}

// execReply builds one executor's quorum-mode share addressed to client and
// agreement nodes.
func execReply(t *testing.T, schemes map[types.NodeID]*auth.MACScheme, exec types.NodeID, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	dests := append([]types.NodeID{1000}, testTop.Agreement...)
	att, err := schemes[exec].Attest(auth.KindReply, wire.BundleDigest(es), dests)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.ExecReply{Entries: es, Executor: exec, Att: att}
}

func TestQuorumAssembly(t *testing.T) {
	schemes := macWorld()
	v := NewVerifier(ModeQuorum, testTop, schemes[1000], nil)
	a := NewAssembler(v)
	es := entries(1)

	cert, err := a.Add(execReply(t, schemes, 100, es))
	if err != nil || cert != nil {
		t.Fatalf("first share: cert=%v err=%v", cert, err)
	}
	// Duplicate share from the same executor must not complete the quorum.
	cert, err = a.Add(execReply(t, schemes, 100, es))
	if err != nil || cert != nil {
		t.Fatalf("duplicate share: cert=%v err=%v", cert, err)
	}
	cert, err = a.Add(execReply(t, schemes, 101, es))
	if err != nil {
		t.Fatal(err)
	}
	if cert == nil {
		t.Fatal("g+1 distinct shares did not complete the certificate")
	}
	if err := v.VerifyCert(cert); err != nil {
		t.Fatalf("assembled certificate invalid: %v", err)
	}
	// Completion happens exactly once.
	cert, err = a.Add(execReply(t, schemes, 102, es))
	if err != nil || cert != nil {
		t.Error("third share re-completed the certificate")
	}
}

func TestQuorumRejectsBadShares(t *testing.T) {
	schemes := macWorld()
	v := NewVerifier(ModeQuorum, testTop, schemes[1000], nil)
	a := NewAssembler(v)
	es := entries(1)

	// Not an executor.
	bad := execReply(t, schemes, 100, es)
	bad.Executor = 0
	if _, err := a.Add(bad); err == nil {
		t.Error("accepted share from non-executor")
	}
	// Attestation/executor mismatch.
	bad = execReply(t, schemes, 100, es)
	bad.Executor = 101
	if _, err := a.Add(bad); err == nil {
		t.Error("accepted share whose attestation names another node")
	}
	// Tampered entries.
	bad = execReply(t, schemes, 100, es)
	bad.Entries[0].Body = []byte("tampered")
	if _, err := a.Add(bad); err == nil {
		t.Error("accepted share over tampered bundle")
	}
	// Empty bundle.
	if _, err := a.Add(&wire.ExecReply{Executor: 100}); err == nil {
		t.Error("accepted empty bundle")
	}
}

func TestVerifyCertQuorum(t *testing.T) {
	schemes := macWorld()
	v := NewVerifier(ModeQuorum, testTop, schemes[1000], nil)
	es := entries(2)
	digest := wire.BundleDigest(es)

	att100, _ := schemes[100].Attest(auth.KindReply, digest, []types.NodeID{1000})
	att101, _ := schemes[101].Attest(auth.KindReply, digest, []types.NodeID{1000})

	cert := &wire.ReplyCert{Entries: es, Atts: []auth.Attestation{att100, att101}}
	if err := v.VerifyCert(cert); err != nil {
		t.Fatal(err)
	}
	// One attestation short.
	cert.Atts = cert.Atts[:1]
	if err := v.VerifyCert(cert); err == nil {
		t.Error("accepted certificate below quorum")
	}
	// Duplicated attestations do not reach quorum.
	cert.Atts = []auth.Attestation{att100, att100}
	if err := v.VerifyCert(cert); err == nil {
		t.Error("accepted duplicated attestations as a quorum")
	}
	// Attestation from a non-executor does not count.
	attAgree, _ := schemes[0].Attest(auth.KindReply, digest, []types.NodeID{1000})
	cert.Atts = []auth.Attestation{att100, attAgree}
	if err := v.VerifyCert(cert); err == nil {
		t.Error("counted an agreement node toward the execution quorum")
	}
	if err := v.VerifyCert(&wire.ReplyCert{}); err == nil {
		t.Error("accepted empty certificate")
	}
}

// Threshold-mode fixtures (dealt once; dealing is the slow part).
var (
	thOnce   sync.Once
	thPub    *threshold.PublicKey
	thShares []*threshold.KeyShare
)

func thresholdWorld(t *testing.T) (*threshold.PublicKey, []*threshold.KeyShare) {
	t.Helper()
	thOnce.Do(func() {
		var err error
		thPub, thShares, err = threshold.Deal(threshold.NewSeededReader("rc"), 512, 2, 3)
		if err != nil {
			t.Fatalf("deal: %v", err)
		}
	})
	return thPub, thShares
}

// thresholdReply is executor idx's proven share over es: what it answers a
// proof request with.
func thresholdReply(t *testing.T, shares []*threshold.KeyShare, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	sh, err := shares[idx].Sign(threshold.NewSeededReader("share"), wire.BundleDigest(es))
	if err != nil {
		t.Fatal(err)
	}
	return &wire.ExecReply{Entries: es, Executor: testTop.Execution[idx], Share: sh.Marshal()}
}

// bareReply is executor idx's bare share over es: what it sends on execution.
func bareReply(shares []*threshold.KeyShare, idx int, es []wire.Reply) *wire.ExecReply {
	sh := shares[idx].Share(wire.BundleDigest(es))
	return &wire.ExecReply{Entries: es, Executor: testTop.Execution[idx], Share: sh.Marshal()}
}

func TestThresholdAssembly(t *testing.T) {
	pub, shares := thresholdWorld(t)
	v := NewVerifier(ModeThreshold, testTop, nil, pub)
	a := NewAssembler(v)
	es := entries(3)

	cert, err := a.Add(bareReply(shares, 0, es))
	if err != nil || cert != nil {
		t.Fatalf("first share: %v %v", cert, err)
	}
	cert, err = a.Add(bareReply(shares, 2, es))
	if err != nil {
		t.Fatal(err)
	}
	if cert == nil || len(cert.ThresholdSig) == 0 {
		t.Fatal("threshold certificate not assembled from g+1 shares")
	}
	if err := v.VerifyCert(cert); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdShareIndexMustMatchExecutor(t *testing.T) {
	pub, shares := thresholdWorld(t)
	v := NewVerifier(ModeThreshold, testTop, nil, pub)
	// Share from player 1 claiming to be executor 102 (player 3).
	m := thresholdReply(t, shares, 0, entries(4))
	m.Executor = testTop.Execution[2]
	if err := v.VerifyShare(m); err == nil {
		t.Error("accepted a share with mismatched player index")
	}
	m.Share = []byte("garbage")
	if err := v.VerifyShare(m); err == nil {
		t.Error("accepted an unparseable share")
	}
}

func TestThresholdVerifyCert(t *testing.T) {
	pub, shares := thresholdWorld(t)
	v := NewVerifier(ModeThreshold, testTop, nil, pub)
	es := entries(5)
	a := NewAssembler(v)
	a.Add(thresholdReply(t, shares, 0, es))
	cert, err := a.Add(thresholdReply(t, shares, 1, es))
	if err != nil || cert == nil {
		t.Fatalf("assembly failed: %v", err)
	}
	// Valid cert, then corrupt the signature and the entries.
	if err := v.VerifyCert(cert); err != nil {
		t.Fatal(err)
	}
	bad := *cert
	bad.ThresholdSig = append([]byte(nil), cert.ThresholdSig...)
	bad.ThresholdSig[0] ^= 1
	if err := v.VerifyCert(&bad); err == nil {
		t.Error("accepted corrupted threshold signature")
	}
	bad = *cert
	bad.Entries = entries(99)
	if err := v.VerifyCert(&bad); err == nil {
		t.Error("accepted signature over different entries")
	}
	bad = *cert
	bad.ThresholdSig = nil
	if err := v.VerifyCert(&bad); err == nil {
		t.Error("accepted certificate without a signature")
	}
}

func TestAssemblerGC(t *testing.T) {
	schemes := macWorld()
	v := NewVerifier(ModeQuorum, testTop, schemes[1000], nil)
	a := NewAssembler(v)
	for seq := types.SeqNum(1); seq <= 5; seq++ {
		if _, err := a.Add(execReply(t, schemes, 100, entries(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if a.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", a.Pending())
	}
	a.GC(3)
	if a.Pending() != 2 {
		t.Errorf("pending after GC(3) = %d, want 2", a.Pending())
	}
}

func TestNewVerifierForCustomMembership(t *testing.T) {
	schemes := macWorld()
	// BASE-style: agreement members certify with quorum f+1 = 2.
	v := NewVerifierFor(ModeQuorum, 2, testTop.Agreement, schemes[1000], nil)
	es := entries(1)
	digest := wire.BundleDigest(es)
	a0, _ := schemes[0].Attest(auth.KindReply, digest, []types.NodeID{1000})
	a1, _ := schemes[1].Attest(auth.KindReply, digest, []types.NodeID{1000})
	cert := &wire.ReplyCert{Entries: es, Atts: []auth.Attestation{a0, a1}}
	if err := v.VerifyCert(cert); err != nil {
		t.Fatal(err)
	}
	// Executors are not members of this certificate group.
	e0, _ := schemes[100].Attest(auth.KindReply, digest, []types.NodeID{1000})
	cert.Atts = []auth.Attestation{a0, e0}
	if err := v.VerifyCert(cert); err == nil {
		t.Error("counted an executor toward a BASE certificate")
	}
}

func TestModeString(t *testing.T) {
	if ModeQuorum.String() != "quorum" || ModeThreshold.String() != "threshold" {
		t.Error("mode strings wrong")
	}
}
