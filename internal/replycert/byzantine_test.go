package replycert

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

// Byzantine executors against the optimistic assembler. Executors send bare
// shares; proofs come in only when a combination failed, either attached to
// a share from the start ("proof attached") or as the answer to a proof
// request ("proof requested"). Proof checks are counted through the
// assembler's test hook, never timed.

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

// lyingReply is executor idx's share over es with a well-formed but wrong
// Xi and no proof: it passes every free check.
func lyingReply(t *testing.T, shares []*threshold.KeyShare, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	return corrupt(t, bareReply(shares, idx, es))
}

// lyingProven is executor idx's share over es with a wrong Xi carrying the
// real share's proof, which therefore fails its check.
func lyingProven(t *testing.T, shares []*threshold.KeyShare, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	return corrupt(t, thresholdReply(t, shares, idx, es))
}

func corrupt(t *testing.T, m *wire.ExecReply) *wire.ExecReply {
	t.Helper()
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

// exchange plays a combiner against executors: it adds queued messages in
// order and, after each, queues every executor's answer to the proof
// requests the assembler then owes (answer returns nil for a mute one).
type exchange struct {
	t      *testing.T
	a      *Assembler
	queue  []*wire.ExecReply
	answer func(exec types.NodeID, req wire.ProofRequest) *wire.ExecReply

	cert   *wire.ReplyCert
	certs  int
	errs   map[types.NodeID]int
	asks   map[types.NodeID]int
	proven int // messages carrying a proof that passed the free checks
}

func newExchange(t *testing.T, a *Assembler, answer func(types.NodeID, wire.ProofRequest) *wire.ExecReply) *exchange {
	return &exchange{t: t, a: a, answer: answer, errs: map[types.NodeID]int{}, asks: map[types.NodeID]int{}}
}

func (x *exchange) run(msgs ...*wire.ExecReply) {
	x.queue = append(x.queue, msgs...)
	for len(x.queue) > 0 {
		m := x.queue[0]
		x.queue = x.queue[1:]
		if sh, err := x.a.v.checkShare(m); err == nil && sh.HasProof() {
			x.proven++
		}
		c, err := x.a.Add(m)
		if c != nil {
			x.cert = c
			x.certs++
		}
		if err != nil {
			x.errs[m.Executor]++
		}
		for _, ask := range x.a.Asks(0) {
			x.asks[ask.Executor]++
			if ans := x.answer(ask.Executor, ask.Req); ans != nil {
				x.queue = append(x.queue, ans)
			}
		}
	}
}

// honestAnswers answers every request with the real proven share over es,
// except the liar's, which gets lie (nil: the liar stays mute).
func honestAnswers(t *testing.T, es []wire.Reply, liar int, lie func() *wire.ExecReply) func(types.NodeID, wire.ProofRequest) *wire.ExecReply {
	_, shares := thresholdWorld(t)
	return func(exec types.NodeID, req wire.ProofRequest) *wire.ExecReply {
		if req.Bundle != wire.BundleDigest(es) || req.Client != es[0].Client {
			t.Fatalf("request names bundle %x client %v, not the bundle held", req.Bundle[:4], req.Client)
		}
		idx := int(exec - testTop.Execution[0])
		if idx == liar {
			if lie == nil {
				return nil
			}
			return lie()
		}
		return thresholdReply(t, shares, idx, es)
	}
}

func TestWrongXiCulpritEvictedOnce(t *testing.T) {
	_, shares := thresholdWorld(t)
	es := entries(20)
	want := wire.Marshal(reference(t, es))

	// Every arrival order of the three executors, with each of them in
	// turn the liar; the liar's proof either comes with its share or, asked
	// for, fails.
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, variant := range []string{"proof attached", "proof requested"} {
		for liar := 0; liar < 3; liar++ {
			for _, order := range orders {
				a, proofs := countingAssembler(t)
				lie := func() *wire.ExecReply { return lyingProven(t, shares, liar, es) }
				x := newExchange(t, a, honestAnswers(t, es, liar, lie))
				for _, idx := range order {
					switch {
					case idx != liar:
						x.run(bareReply(shares, idx, es))
					case variant == "proof attached":
						x.run(lyingProven(t, shares, idx, es))
					default:
						x.run(lyingReply(t, shares, idx, es))
					}
				}
				if x.certs != 1 {
					t.Fatalf("%s, liar %d order %v: %d certificates from g+1 correct shares", variant, liar, order, x.certs)
				}
				if !bytes.Equal(wire.Marshal(x.cert), want) {
					t.Fatalf("%s, liar %d order %v: certificate differs from the all-proven one", variant, liar, order)
				}
				for id, n := range x.errs {
					if id != testTop.Execution[liar] {
						t.Fatalf("%s, liar %d order %v: correct executor %v got %d errors", variant, liar, order, id, n)
					}
				}
				// The liar is counted exactly once if it arrived before the
				// certificate completed, and never touched otherwise.
				wantRejected := uint64(1)
				if order[2] == liar {
					wantRejected = 0
				}
				if a.Rejected != wantRejected {
					t.Errorf("%s, liar %d order %v: rejected = %d, want %d", variant, liar, order, a.Rejected, wantRejected)
				}
				if *proofs > x.proven {
					t.Errorf("%s, liar %d order %v: %d proof checks for %d proven shares", variant, liar, order, *proofs, x.proven)
				}
				if variant == "proof attached" && len(x.asks) != 0 {
					t.Errorf("liar %d order %v: asked %v although the culprit's proof came with its share", liar, order, x.asks)
				}
			}
		}
	}
}

func TestCulpritArrivingLastGetsTheError(t *testing.T) {
	_, shares := thresholdWorld(t)
	es := entries(21)

	// Proof attached: the lying share completing the quorum is named at once.
	a, _ := countingAssembler(t)
	if _, err := a.Add(bareReply(shares, 0, es)); err != nil {
		t.Fatal(err)
	}
	if cert, err := a.Add(lyingProven(t, shares, 1, es)); err == nil || cert != nil {
		t.Fatalf("lying share completing the quorum: cert=%v err=%v", cert, err)
	}
	// The correct share it sat next to survived.
	cert, err := a.Add(bareReply(shares, 2, es))
	if err != nil || cert == nil {
		t.Fatalf("recombination from the rest: cert=%v err=%v", cert, err)
	}
	if a.Rejected != 1 || a.Asks(0) != nil {
		t.Errorf("rejected = %d, asks %v; want 1 and none", a.Rejected, a.Asks(0))
	}

	// Proof requested: nothing can be named until the proofs are in; the
	// liar's answer gets the error.
	a, _ = countingAssembler(t)
	a.Add(bareReply(shares, 0, es))
	if cert, err := a.Add(lyingReply(t, shares, 1, es)); err != nil || cert != nil {
		t.Fatalf("a bare lying share was named before any proof: cert=%v err=%v", cert, err)
	}
	asks := a.Asks(0)
	if len(asks) != 2 || asks[0].Executor != 100 || asks[1].Executor != 101 {
		t.Fatalf("asks = %+v, want the two executors held unproven", asks)
	}
	if _, err := a.Add(thresholdReply(t, shares, 0, es)); err != nil {
		t.Fatal(err)
	}
	if cert, err := a.Add(lyingProven(t, shares, 1, es)); err == nil || cert != nil {
		t.Fatalf("liar's failing proof: cert=%v err=%v", cert, err)
	}
	a.Add(bareReply(shares, 2, es))
	if asks := a.Asks(0); len(asks) != 1 || asks[0].Executor != 102 {
		t.Fatalf("asks = %+v, want only the newcomer", asks)
	}
	if cert, err := a.Add(thresholdReply(t, shares, 2, es)); err != nil || cert == nil {
		t.Fatalf("two proven correct shares: cert=%v err=%v", cert, err)
	}
	if a.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", a.Rejected)
	}
}

func TestPrefilledForgeryDoesNotDelayRealShare(t *testing.T) {
	_, shares := thresholdWorld(t)
	es := entries(22)
	want := wire.Marshal(reference(t, es))

	// Proof attached: a forgery sits in executor 101's slot when 101's
	// proven share arrives; the real share proves itself, displaces it, and
	// the bundle certifies with the very next correct share.
	a, proofs := countingAssembler(t)
	if _, err := a.Add(lyingProven(t, shares, 1, es)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Add(thresholdReply(t, shares, 1, es)); err != nil {
		t.Fatalf("real share refused behind a forgery: %v", err)
	}
	cert, err := a.Add(bareReply(shares, 0, es))
	if err != nil || cert == nil {
		t.Fatalf("forgery delayed certification: cert=%v err=%v", cert, err)
	}
	if !bytes.Equal(wire.Marshal(cert), want) {
		t.Error("certificate differs from the all-proven one")
	}
	if *proofs != 1 || a.Rejected != 1 {
		t.Errorf("proofs = %d, rejected = %d; want 1 and 1 (the displacement)", *proofs, a.Rejected)
	}

	// Proof requested: the real share arrives bare and cannot displace the
	// forgery unproven, but the failed combination asks 101 for its proof,
	// and the proven real share displaces it then.
	a, proofs = countingAssembler(t)
	x := newExchange(t, a, honestAnswers(t, es, -1, nil))
	x.run(lyingReply(t, shares, 1, es), bareReply(shares, 1, es), bareReply(shares, 0, es))
	if x.certs != 1 || !bytes.Equal(wire.Marshal(x.cert), want) {
		t.Fatalf("%d certificates; the forgery kept the real share out", x.certs)
	}
	if x.asks[101] != 1 || *proofs > x.proven || a.Rejected != 2 {
		t.Errorf("asks %v, proofs = %d of %d proven, rejected = %d; want 101 asked once and 2 rejected (the bare conflict, the displacement)",
			x.asks, *proofs, x.proven, a.Rejected)
	}

	// The other way round a forgery must prove itself and cannot: the real
	// share is never evicted, bare forgeries cost no check at all.
	for _, variant := range []string{"proof attached", "proof requested"} {
		forge := func() *wire.ExecReply { return lyingReply(t, shares, 1, es) }
		wantProofs := 0
		if variant == "proof attached" {
			forge = func() *wire.ExecReply { return lyingProven(t, shares, 1, es) }
			wantProofs = 3
		}
		a, proofs = countingAssembler(t)
		if _, err := a.Add(bareReply(shares, 1, es)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := a.Add(forge()); err == nil {
				t.Fatalf("%s: forgery displaced an unproven real share", variant)
			}
		}
		cert, err = a.Add(bareReply(shares, 2, es))
		if err != nil || cert == nil {
			t.Fatalf("%s: cert=%v err=%v", variant, cert, err)
		}
		if *proofs != wantProofs || a.Rejected != 3 {
			t.Errorf("%s: proofs = %d, rejected = %d; want %d and one per forged message", variant, *proofs, a.Rejected, wantProofs)
		}
	}
}

func TestCleanAndLateSharesCostNoProofs(t *testing.T) {
	_, shares := thresholdWorld(t)
	es := entries(23)
	a, proofs := countingAssembler(t)
	a.Add(bareReply(shares, 0, es))
	// The same executor again: held already.
	a.Add(bareReply(shares, 0, es))
	cert, err := a.Add(bareReply(shares, 1, es))
	if err != nil || cert == nil {
		t.Fatalf("cert=%v err=%v", cert, err)
	}
	if *proofs != 0 || a.Asks(0) != nil {
		t.Fatalf("a clean bundle cost %d proof checks and asked %v, want none", *proofs, a.Asks(0))
	}
	// 24 late and duplicate shares, bare and proven, correct and lying, for
	// the certified bundle.
	for i := 0; i < 24; i++ {
		var m *wire.ExecReply
		switch i % 4 {
		case 0:
			m = bareReply(shares, i%3, es)
		case 1:
			m = lyingReply(t, shares, i%3, es)
		case 2:
			m = thresholdReply(t, shares, i%3, es)
		default:
			m = lyingProven(t, shares, i%3, es)
		}
		if c, err := a.Add(m); c != nil || err != nil {
			t.Fatalf("late share %d: cert=%v err=%v", i, c, err)
		}
	}
	if *proofs != 0 || a.Rejected != 0 || a.Asks(ProofRetry) != nil {
		t.Errorf("late shares cost %d proof checks, %d rejected, asks %v; want none", *proofs, a.Rejected, a.Asks(ProofRetry))
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

// TestProofBudget drives seeded random message sequences — bare and proven,
// correct, lying, malformed and misattributed shares over two bundles, with
// proof requests answered by honest executors and one liar or mute prover —
// and checks what the request flow must keep: the assembler never runs more
// proof checks than it received proven shares that passed the free checks;
// at one instant it asks each executor at most once per bundle, so even an
// executor that caches nothing computes at most one proof per bundle per
// ProofRetry; and whatever certificate comes out is the all-proven one.
func TestProofBudget(t *testing.T) {
	_, shares := thresholdWorld(t)
	bundles := [][]wire.Reply{entries(30), entries(31)}
	want := [][]byte{wire.Marshal(reference(t, bundles[0])), wire.Marshal(reference(t, bundles[1]))}
	bundleOf := func(d types.Digest) int {
		if d == wire.BundleDigest(bundles[0]) {
			return 0
		}
		return 1
	}

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, proofs := countingAssembler(t)
		liar, mute := rng.Intn(3), rng.Intn(2) == 0
		certified := make([]bool, len(bundles))
		proven := 0
		var queue []*wire.ExecReply
		for step := 0; step < 40; step++ {
			var m *wire.ExecReply
			if len(queue) > 0 && rng.Intn(2) == 0 {
				m, queue = queue[0], queue[1:]
			} else {
				b, idx := rng.Intn(len(bundles)), rng.Intn(3)
				switch rng.Intn(7) {
				case 0, 1:
					m = bareReply(shares, idx, bundles[b])
				case 2:
					m = thresholdReply(t, shares, idx, bundles[b])
				case 3:
					m = lyingReply(t, shares, idx, bundles[b])
				case 4:
					m = lyingProven(t, shares, idx, bundles[b])
				case 5:
					m = bareReply(shares, idx, bundles[b])
					m.Executor = testTop.Execution[(idx+1)%3] // index ≠ executor
				default:
					m = &wire.ExecReply{Entries: bundles[b], Executor: testTop.Execution[idx], Share: []byte("junk")}
				}
			}
			if sh, err := a.v.checkShare(m); err == nil && sh.HasProof() {
				proven++
			}
			if cert, _ := a.Add(m); cert != nil {
				b := bundleOf(wire.BundleDigest(cert.Entries))
				if certified[b] {
					t.Fatalf("seed %d: bundle %d certified twice", seed, b)
				}
				certified[b] = true
				if !bytes.Equal(wire.Marshal(cert), want[b]) {
					t.Fatalf("seed %d: bundle %d certificate differs from the all-proven one", seed, b)
				}
			}
			now := types.Time(step) * ProofRetry / 4
			asked := make(map[wire.ProofRequest]map[types.NodeID]bool)
			for _, ask := range a.Asks(now) {
				if asked[ask.Req] == nil {
					asked[ask.Req] = make(map[types.NodeID]bool)
				}
				if asked[ask.Req][ask.Executor] {
					t.Fatalf("seed %d: %v asked twice at once for one bundle", seed, ask.Executor)
				}
				asked[ask.Req][ask.Executor] = true
				idx := int(ask.Executor - testTop.Execution[0])
				es := bundles[bundleOf(ask.Req.Bundle)]
				switch {
				case idx != liar:
					queue = append(queue, thresholdReply(t, shares, idx, es))
				case !mute:
					queue = append(queue, lyingProven(t, shares, idx, es))
				}
			}
		}
		if *proofs > proven {
			t.Errorf("seed %d: %d proof checks for %d proven shares received", seed, *proofs, proven)
		}
	}
}

func TestSlotsNeverExceedQuorumAtCombine(t *testing.T) {
	_, shares := thresholdWorld(t)

	// Proof attached: with only liars the assembler keeps evicting and
	// never certifies; no bundle may hold a quorum of shares that do not
	// combine afterwards.
	es := entries(32)
	a, _ := countingAssembler(t)
	for round := 0; round < 4; round++ {
		for idx := 0; idx < 3; idx++ {
			if cert, _ := a.Add(lyingProven(t, shares, idx, es)); cert != nil {
				t.Fatal("liars alone certified a bundle")
			}
		}
	}
	pb := a.pending[wire.BundleDigest(es)]
	if pb == nil || len(pb.shares) >= a.v.Quorum {
		t.Fatalf("bundle holds a quorum of shares that do not combine: %+v", pb)
	}

	// Proof requested: bare liars fill every slot and cannot be evicted
	// unproven. Their repeats cost nothing, each of them is asked once per
	// ProofRetry, and their failing proofs are refused one check each.
	es = entries(33)
	a, proofs := countingAssembler(t)
	for round := 0; round < 4; round++ {
		for idx := 0; idx < 3; idx++ {
			if cert, _ := a.Add(lyingReply(t, shares, idx, es)); cert != nil {
				t.Fatal("liars alone certified a bundle")
			}
		}
	}
	if asks := a.Asks(0); len(asks) != 3 || a.Asks(ProofRetry-1) != nil {
		t.Fatalf("asks = %+v; want each liar once", asks)
	}
	if asks := a.Asks(ProofRetry); len(asks) != 3 {
		t.Fatalf("re-asks after ProofRetry = %+v; want each liar again", asks)
	}
	for idx := 0; idx < 3; idx++ {
		if cert, err := a.Add(lyingProven(t, shares, idx, es)); cert != nil || err == nil {
			t.Fatalf("liar %d's failing proof: cert=%v err=%v", idx, cert, err)
		}
	}
	if *proofs != 3 || a.Rejected != 3 {
		t.Errorf("proofs = %d, rejected = %d; want 3 and 3", *proofs, a.Rejected)
	}
	// Collecting the bundle ends the asking.
	a.GC(33)
	if asks := a.Asks(10 * ProofRetry); asks != nil {
		t.Errorf("asks for a collected bundle: %+v", asks)
	}
}
