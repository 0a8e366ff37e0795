package replycert

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/threshold"
	"repro/internal/wire"
)

// Byzantine executors against the optimistic assembler. Proof checks are
// counted through the assembler's test hook, never timed.

// countingAssembler returns a threshold-mode assembler and the number of
// share proofs (or attestation checks) it has run.
func countingAssembler(t *testing.T) (*Assembler, *int) {
	t.Helper()
	pub, _ := thresholdWorld(t)
	a := NewAssembler(NewVerifier(ModeThreshold, testTop, nil, pub))
	proofs := new(int)
	a.onProof = func() { *proofs++ }
	return a, proofs
}

// lyingReply is executor idx's share over es with a well-formed but wrong Xi
// (and therefore a stale proof): it passes every free check.
func lyingReply(t *testing.T, shares []*threshold.KeyShare, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	m := thresholdReply(t, shares, idx, es)
	sh, err := threshold.UnmarshalSigShare(m.Share)
	if err != nil {
		t.Fatal(err)
	}
	sh.Xi.Add(sh.Xi, big.NewInt(1))
	m.Share = sh.Marshal()
	return m
}

// reference is the certificate an assembler that only ever saw proven,
// correct shares produces for es.
func reference(t *testing.T, es []wire.Reply) *wire.ReplyCert {
	t.Helper()
	pub, shares := thresholdWorld(t)
	v := NewVerifier(ModeThreshold, testTop, nil, pub)
	a := NewAssembler(v)
	var cert *wire.ReplyCert
	for idx := 0; idx < 2; idx++ {
		m := thresholdReply(t, shares, idx, es)
		if err := v.VerifyShare(m); err != nil {
			t.Fatal(err)
		}
		c, err := a.Add(m)
		if err != nil {
			t.Fatal(err)
		}
		cert = c
	}
	if cert == nil {
		t.Fatal("no reference certificate")
	}
	return cert
}

func TestWrongXiCulpritEvictedOnce(t *testing.T) {
	_, shares := thresholdWorld(t)
	es := entries(20)
	want := wire.Marshal(reference(t, es))

	// Every arrival order of the three executors, with each of them in
	// turn the liar.
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for liar := 0; liar < 3; liar++ {
		for _, order := range orders {
			a, proofs := countingAssembler(t)
			var cert *wire.ReplyCert
			for _, idx := range order {
				m := thresholdReply(t, shares, idx, es)
				if idx == liar {
					m = lyingReply(t, shares, idx, es)
				}
				c, err := a.Add(m)
				if c != nil {
					cert = c
				}
				if err != nil && idx != liar {
					t.Fatalf("liar %d order %v: correct executor %d got %v", liar, order, idx, err)
				}
			}
			if cert == nil {
				t.Fatalf("liar %d order %v: g+1 correct shares did not certify", liar, order)
			}
			if !bytes.Equal(wire.Marshal(cert), want) {
				t.Fatalf("liar %d order %v: certificate differs from the all-proven one", liar, order)
			}
			// The liar is counted exactly once if it arrived before the
			// certificate completed, and never touched otherwise.
			wantRejected := uint64(1)
			if order[2] == liar {
				wantRejected = 0
			}
			if a.Rejected != wantRejected {
				t.Errorf("liar %d order %v: rejected = %d, want %d", liar, order, a.Rejected, wantRejected)
			}
			if *proofs > 3 {
				t.Errorf("liar %d order %v: %d proof checks for 3 messages", liar, order, *proofs)
			}
		}
	}
}

func TestCulpritArrivingLastGetsTheError(t *testing.T) {
	_, shares := thresholdWorld(t)
	es := entries(21)
	a, _ := countingAssembler(t)
	if _, err := a.Add(thresholdReply(t, shares, 0, es)); err != nil {
		t.Fatal(err)
	}
	if cert, err := a.Add(lyingReply(t, shares, 1, es)); err == nil || cert != nil {
		t.Fatalf("lying share completing the quorum: cert=%v err=%v", cert, err)
	}
	// The correct share it sat next to survived, proven.
	cert, err := a.Add(thresholdReply(t, shares, 2, es))
	if err != nil || cert == nil {
		t.Fatalf("recombination from the rest: cert=%v err=%v", cert, err)
	}
	if a.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", a.Rejected)
	}
}

func TestPrefilledForgeryDoesNotDelayRealShare(t *testing.T) {
	_, shares := thresholdWorld(t)
	es := entries(22)
	want := wire.Marshal(reference(t, es))

	// A forgery sits in executor 101's slot when 101's real share arrives:
	// the real share proves itself, displaces it, and the bundle certifies
	// with the very next correct share.
	a, proofs := countingAssembler(t)
	if _, err := a.Add(lyingReply(t, shares, 1, es)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Add(thresholdReply(t, shares, 1, es)); err != nil {
		t.Fatalf("real share refused behind a forgery: %v", err)
	}
	cert, err := a.Add(thresholdReply(t, shares, 0, es))
	if err != nil || cert == nil {
		t.Fatalf("forgery delayed certification: cert=%v err=%v", cert, err)
	}
	if !bytes.Equal(wire.Marshal(cert), want) {
		t.Error("certificate differs from the all-proven one")
	}
	if *proofs != 1 || a.Rejected != 1 {
		t.Errorf("proofs = %d, rejected = %d; want 1 and 1 (the displacement)", *proofs, a.Rejected)
	}

	// The other way round the forgery must prove itself and cannot: the
	// real share is never evicted.
	a, proofs = countingAssembler(t)
	if _, err := a.Add(thresholdReply(t, shares, 1, es)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Add(lyingReply(t, shares, 1, es)); err == nil {
			t.Fatal("forgery displaced an unproven real share")
		}
	}
	cert, err = a.Add(thresholdReply(t, shares, 2, es))
	if err != nil || cert == nil {
		t.Fatalf("cert=%v err=%v", cert, err)
	}
	if *proofs != 3 || a.Rejected != 3 {
		t.Errorf("proofs = %d, rejected = %d; want one per forged message", *proofs, a.Rejected)
	}
}

func TestCleanAndLateSharesCostNoProofs(t *testing.T) {
	_, shares := thresholdWorld(t)
	es := entries(23)
	a, proofs := countingAssembler(t)
	a.Add(thresholdReply(t, shares, 0, es))
	// The same executor again: held already.
	a.Add(thresholdReply(t, shares, 0, es))
	cert, err := a.Add(thresholdReply(t, shares, 1, es))
	if err != nil || cert == nil {
		t.Fatalf("cert=%v err=%v", cert, err)
	}
	if *proofs != 0 {
		t.Fatalf("a clean bundle cost %d proof checks, want 0", *proofs)
	}
	// 24 late and duplicate shares, correct and lying, for the certified
	// bundle.
	for i := 0; i < 24; i++ {
		m := thresholdReply(t, shares, i%3, es)
		if i%2 == 1 {
			m = lyingReply(t, shares, i%3, es)
		}
		if c, err := a.Add(m); c != nil || err != nil {
			t.Fatalf("late share %d: cert=%v err=%v", i, c, err)
		}
	}
	if *proofs != 0 || a.Rejected != 0 {
		t.Errorf("late shares cost %d proof checks, %d rejected; want 0", *proofs, a.Rejected)
	}
}

func TestQuorumLookupBeforeVerify(t *testing.T) {
	schemes := macWorld()
	a := NewAssembler(NewVerifier(ModeQuorum, testTop, schemes[1000], nil))
	checks := 0
	a.onProof = func() { checks++ }
	es := entries(24)
	a.Add(execReply(t, schemes, 100, es))
	a.Add(execReply(t, schemes, 100, es)) // already counted
	if cert, _ := a.Add(execReply(t, schemes, 101, es)); cert == nil {
		t.Fatal("no certificate")
	}
	a.Add(execReply(t, schemes, 102, es)) // already certified
	if checks != 2 {
		t.Errorf("%d attestation checks, want 2 (one per share that could change state)", checks)
	}
	// A tampered share is never stored, so it cannot shadow the real one.
	es2 := entries(25)
	bad := execReply(t, schemes, 100, es2)
	bad.Att.Proof = append([]byte(nil), bad.Att.Proof...)
	bad.Att.Proof[len(bad.Att.Proof)-1] ^= 1
	if _, err := a.Add(bad); err == nil {
		t.Fatal("accepted a tampered attestation")
	}
	if a.Pending() != 1 {
		t.Errorf("rejected share left a pending bundle behind (%d pending)", a.Pending())
	}
	if _, err := a.Add(execReply(t, schemes, 100, es2)); err != nil {
		t.Fatalf("real share refused after a tampered one: %v", err)
	}
}

// TestProofBudget drives seeded random message sequences — correct, lying,
// re-randomised, malformed and misattributed shares over two bundles — and
// checks the two properties the optimistic path must keep: the assembler
// never runs more proof checks than one per message that passes the free
// checks (what verifying on arrival cost), and whatever certificate comes
// out is the all-proven one.
func TestProofBudget(t *testing.T) {
	pub, shares := thresholdWorld(t)
	v := NewVerifier(ModeThreshold, testTop, nil, pub)
	bundles := [][]wire.Reply{entries(30), entries(31)}
	want := [][]byte{wire.Marshal(reference(t, bundles[0])), wire.Marshal(reference(t, bundles[1]))}

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, proofs := countingAssembler(t)
		budget := 0
		certified := make([]bool, len(bundles))
		for step := 0; step < 30; step++ {
			b, idx := rng.Intn(len(bundles)), rng.Intn(3)
			var m *wire.ExecReply
			switch rng.Intn(5) {
			case 0, 1:
				m = thresholdReply(t, shares, idx, bundles[b])
			case 2:
				m = lyingReply(t, shares, idx, bundles[b])
			case 3:
				m = thresholdReply(t, shares, idx, bundles[b])
				m.Executor = testTop.Execution[(idx+1)%3] // index ≠ executor
			default:
				m = &wire.ExecReply{Entries: bundles[b], Executor: testTop.Execution[idx], Share: []byte("junk")}
			}
			if _, err := v.checkShare(m); err == nil {
				budget++
			}
			cert, _ := a.Add(m)
			if cert == nil {
				continue
			}
			if certified[b] {
				t.Fatalf("seed %d: bundle %d certified twice", seed, b)
			}
			certified[b] = true
			if !bytes.Equal(wire.Marshal(cert), want[b]) {
				t.Fatalf("seed %d: bundle %d certificate differs from the all-proven one", seed, b)
			}
		}
		if *proofs > budget {
			t.Errorf("seed %d: %d proof checks for %d admissible messages", seed, *proofs, budget)
		}
	}
}

func TestSlotsNeverExceedQuorumAtCombine(t *testing.T) {
	// With only liars the assembler keeps evicting and never certifies; no
	// bundle may hold more than a quorum of unproven shares afterwards.
	_, shares := thresholdWorld(t)
	es := entries(32)
	a, _ := countingAssembler(t)
	for round := 0; round < 4; round++ {
		for idx := 0; idx < 3; idx++ {
			if cert, _ := a.Add(lyingReply(t, shares, idx, es)); cert != nil {
				t.Fatal("liars alone certified a bundle")
			}
		}
	}
	pb := a.pending[wire.BundleDigest(es)]
	if pb == nil || len(pb.shares) >= a.v.Quorum {
		t.Fatalf("bundle holds a quorum of shares that do not combine: %+v", pb)
	}
}
