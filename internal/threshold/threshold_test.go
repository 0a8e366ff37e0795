package threshold

import (
	"bytes"
	"errors"
	"math/big"
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// testKey deals a small, deterministic key once and shares it across tests;
// dealing searches for primes, which is the slow part.
var (
	dealOnce   sync.Once
	testPub    *PublicKey
	testShares []*KeyShare
)

func dealTestKey(t *testing.T) (*PublicKey, []*KeyShare) {
	t.Helper()
	dealOnce.Do(func() {
		var err error
		testPub, testShares, err = Deal(NewSeededReader("threshold-test"), 512, 2, 3)
		if err != nil {
			t.Fatalf("Deal: %v", err)
		}
	})
	return testPub, testShares
}

func TestDealParametersRejected(t *testing.T) {
	rng := NewSeededReader("x")
	if _, _, err := Deal(rng, 512, 0, 3); err == nil {
		t.Error("Deal accepted k=0")
	}
	if _, _, err := Deal(rng, 512, 4, 3); err == nil {
		t.Error("Deal accepted k > players")
	}
	if _, _, err := Deal(rng, 128, 2, 3); err == nil {
		t.Error("Deal accepted 128-bit modulus")
	}
}

func TestSignCombineVerify(t *testing.T) {
	pub, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("hello"))
	rng := NewSeededReader("sign")

	var sigShares []*SigShare
	for _, ks := range shares {
		sh, err := ks.Sign(rng, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.VerifyShare(d, sh); err != nil {
			t.Fatalf("share %d verify: %v", sh.Index, err)
		}
		sigShares = append(sigShares, sh)
	}
	sig, err := pub.Combine(d, sigShares)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(d, sig); err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(types.DigestBytes([]byte("other")), sig); err == nil {
		t.Error("signature verified for the wrong digest")
	}
}

func TestCombineSubsetIndependence(t *testing.T) {
	// The combined signature must be byte-identical regardless of which
	// valid k-subset contributed — this is what closes the certificate
	// membership covert channel (§4.2.2).
	pub, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("membership"))
	rng := NewSeededReader("subset")

	sh := make([]*SigShare, 3)
	for i, ks := range shares {
		var err error
		sh[i], err = ks.Sign(rng, d)
		if err != nil {
			t.Fatal(err)
		}
	}
	subsets := [][]*SigShare{
		{sh[0], sh[1]},
		{sh[1], sh[2]},
		{sh[0], sh[2]},
		{sh[2], sh[0], sh[1]},
	}
	var first []byte
	for i, sub := range subsets {
		sig, err := pub.Combine(d, sub)
		if err != nil {
			t.Fatalf("subset %d: %v", i, err)
		}
		if first == nil {
			first = sig
		} else if !bytes.Equal(first, sig) {
			t.Fatalf("subset %d produced a different signature", i)
		}
	}

	// Bare shares, as executors send them, combine to the same bytes, alone
	// or mixed with proven ones.
	bare := make([]*SigShare, 3)
	for i, ks := range shares {
		bare[i] = ks.Share(d)
		if bare[i].HasProof() || bare[i].Xi.Cmp(sh[i].Xi) != 0 {
			t.Fatalf("bare share %d: proof %v, same x_i %v", i, bare[i].HasProof(), bare[i].Xi.Cmp(sh[i].Xi) == 0)
		}
	}
	for i, sub := range [][]*SigShare{
		{bare[0], bare[1]},
		{bare[2], bare[1]},
		{bare[0], bare[1], bare[2]},
		{bare[0], sh[2]},
	} {
		sig, err := pub.Combine(d, sub)
		if err != nil {
			t.Fatalf("bare subset %d: %v", i, err)
		}
		if !bytes.Equal(first, sig) {
			t.Fatalf("bare subset %d produced a different signature", i)
		}
	}

	// The same must hold when shares go in unproven and some of them lie:
	// whether the optimistic combination succeeds at once or the proofs
	// have to sort the culprits out first, the bytes are those of the
	// all-proven result.
	for _, s := range sh {
		if err := pub.VerifyShare(d, s); err != nil {
			t.Fatalf("share %d: %v", s.Index, err)
		}
	}
	lying := make([]*SigShare, 3)
	for i, s := range sh {
		bad := *s
		bad.Xi = new(big.Int).Add(s.Xi, one) // well-formed, wrong value, stale proof
		lying[i] = &bad
	}
	withCulprits := [][]*SigShare{
		{lying[0], sh[1], sh[2]}, // culprit among the K lowest: proofs run
		{sh[2], sh[1], lying[0]},
		{sh[0], lying[1], sh[2]},
		{sh[0], sh[1], lying[2]}, // culprit never touched
		{lying[0], sh[0], sh[1]}, // a forgery ahead of the real share of its player
		{lying[0], lying[1], sh[0], sh[1], sh[2]},
		{lying[1], sh[0], sh[2], nil},
	}
	for i, sub := range withCulprits {
		sig, err := pub.Combine(d, sub)
		if err != nil {
			t.Fatalf("subset %d with culprits: %v", i, err)
		}
		if !bytes.Equal(first, sig) {
			t.Fatalf("subset %d with culprits produced a different signature", i)
		}
	}
}

func TestShareThenProveIsSign(t *testing.T) {
	pub, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("share-prove"))
	signed, err := shares[1].Sign(NewSeededReader("share-prove"), d)
	if err != nil {
		t.Fatal(err)
	}
	sh := shares[1].Share(d)
	if err := pub.VerifyShare(d, sh); err == nil {
		t.Fatal("VerifyShare accepted a share that carries no proof")
	}
	bare, err := UnmarshalSigShare(sh.Marshal())
	if err != nil {
		t.Fatalf("bare share does not decode: %v", err)
	}
	if bare.HasProof() || pub.VerifyShare(d, bare) == nil {
		t.Fatal("a decoded bare share counts as proven")
	}
	if err := shares[1].Prove(NewSeededReader("share-prove"), d, sh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sh.Marshal(), signed.Marshal()) {
		t.Fatal("Share followed by Prove differs from Sign with the same randomness")
	}
	if err := pub.VerifyShare(d, sh); err != nil {
		t.Fatalf("proven share: %v", err)
	}
	// A key share proves only its own player's shares.
	if err := shares[0].Prove(NewSeededReader("x"), d, shares[1].Share(d)); err == nil {
		t.Error("Prove accepted another player's share")
	}
}

func TestCombineExactlyKWithCulprit(t *testing.T) {
	// K players' shares that do not combine cannot be repaired by dropping
	// one: fewer than K are valid, whichever it is that lied.
	pub, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("exactly-k"))
	rng := NewSeededReader("exactly-k")
	good0, _ := shares[0].Sign(rng, d)
	good1, _ := shares[1].Sign(rng, d)
	bad := *good1
	bad.Xi = new(big.Int).Add(good1.Xi, one)
	if _, err := pub.Combine(d, []*SigShare{good0, &bad}); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("Combine with a lying share among exactly K: err = %v, want ErrNotEnoughShares", err)
	}
	// A second copy of the same player's share does not make it K+1.
	if _, err := pub.Combine(d, []*SigShare{good0, &bad, &bad}); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("duplicate lying share: err = %v, want ErrNotEnoughShares", err)
	}
	if _, err := pub.Combine(d, []*SigShare{good0, good1}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalSigShareCanonicalOnly(t *testing.T) {
	_, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("canonical"))
	sh, err := shares[0].Sign(NewSeededReader("canonical"), d)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode each integer field in turn with one leading zero byte.
	for field := 0; field < 3; field++ {
		fields := [][]byte{sh.Xi.Bytes(), sh.Z.Bytes(), sh.C.Bytes()}
		fields[field] = append([]byte{0}, fields[field]...)
		var w wire.Writer
		w.U32(uint32(sh.Index))
		for _, f := range fields {
			w.Bytes(f)
		}
		if _, err := UnmarshalSigShare(w.B); err == nil {
			t.Errorf("accepted a leading zero in field %d", field)
		}
	}
}

func TestCombineRejectsTooFewShares(t *testing.T) {
	pub, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("few"))
	sh, err := shares[0].Sign(NewSeededReader("few"), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Combine(d, []*SigShare{sh}); err == nil {
		t.Error("Combine succeeded with k-1 shares")
	}
	// Duplicates of the same player must not count twice.
	if _, err := pub.Combine(d, []*SigShare{sh, sh}); err == nil {
		t.Error("Combine counted duplicate player shares")
	}
}

func TestBadShareRejected(t *testing.T) {
	pub, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("bad"))
	rng := NewSeededReader("bad")

	good0, _ := shares[0].Sign(rng, d)
	good1, _ := shares[1].Sign(rng, d)

	// A fabricated share: right structure, wrong exponentiation.
	forged := &SigShare{Index: 3, Xi: big.NewInt(12345), Z: good1.Z, C: good1.C}
	if err := pub.VerifyShare(d, forged); err == nil {
		t.Fatal("VerifyShare accepted a forged share")
	}
	// Combine must succeed by filtering the forged share out when enough
	// good ones remain...
	if _, err := pub.Combine(d, []*SigShare{forged, good0, good1}); err != nil {
		t.Fatalf("Combine with one bad + k good shares: %v", err)
	}
	// ...and fail cleanly when they do not.
	if _, err := pub.Combine(d, []*SigShare{forged, good0}); err == nil {
		t.Error("Combine succeeded with a forged share standing in for a good one")
	}
}

func TestShareProofBoundToDigest(t *testing.T) {
	pub, shares := dealTestKey(t)
	d1 := types.DigestBytes([]byte("one"))
	d2 := types.DigestBytes([]byte("two"))
	sh, err := shares[0].Sign(NewSeededReader("bind"), d1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.VerifyShare(d2, sh); err == nil {
		t.Error("share proof verified against a different digest (replayable)")
	}
}

func TestVerifyShareRangeChecks(t *testing.T) {
	pub, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("r"))
	sh, _ := shares[0].Sign(NewSeededReader("r"), d)
	bad := *sh
	bad.Index = 99
	if err := pub.VerifyShare(d, &bad); err == nil {
		t.Error("accepted out-of-range index")
	}
	bad = *sh
	bad.Xi = new(big.Int).Add(pub.N, big.NewInt(1))
	if err := pub.VerifyShare(d, &bad); err == nil {
		t.Error("accepted Xi >= N")
	}
	bad = *sh
	bad.Xi = nil
	if err := pub.VerifyShare(d, &bad); err == nil {
		t.Error("accepted nil Xi")
	}
}

func TestVerifyRejectsMalformedSignature(t *testing.T) {
	pub, _ := dealTestKey(t)
	d := types.DigestBytes([]byte("m"))
	if err := pub.Verify(d, nil); err == nil {
		t.Error("accepted nil signature")
	}
	if err := pub.Verify(d, make([]byte, pub.modBytes())); err == nil {
		t.Error("accepted zero signature")
	}
	huge := new(big.Int).Add(pub.N, big.NewInt(5)).FillBytes(make([]byte, pub.modBytes()))
	if err := pub.Verify(d, huge); err == nil {
		t.Error("accepted y >= N")
	}
}

func TestSigShareMarshalRoundTrip(t *testing.T) {
	pub, shares := dealTestKey(t)
	d := types.DigestBytes([]byte("wire"))
	sh, err := shares[2].Sign(NewSeededReader("wire"), d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalSigShare(sh.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Index != sh.Index || out.Xi.Cmp(sh.Xi) != 0 || out.Z.Cmp(sh.Z) != 0 || out.C.Cmp(sh.C) != 0 {
		t.Error("share did not round trip")
	}
	if err := pub.VerifyShare(d, out); err != nil {
		t.Errorf("round-tripped share failed verification: %v", err)
	}
	if _, err := UnmarshalSigShare([]byte{1, 2, 3}); err == nil {
		t.Error("UnmarshalSigShare accepted garbage")
	}
	if _, err := UnmarshalSigShare(append(sh.Marshal(), 0)); err == nil {
		t.Error("UnmarshalSigShare accepted trailing bytes")
	}
}

func TestLagrangeIntegrality(t *testing.T) {
	pub, _ := dealTestKey(t)
	// Every k-subset of {1..players} must produce integral coefficients
	// (the panic inside lagrange would fail the test otherwise).
	idx := [][]int{{1, 2}, {1, 3}, {2, 3}}
	for _, s := range idx {
		for _, i := range s {
			_ = pub.lagrange(s, i)
		}
	}
}

func TestSeededReaderDeterministic(t *testing.T) {
	a, b := NewSeededReader("s"), NewSeededReader("s")
	ba, bb := make([]byte, 100), make([]byte, 100)
	if _, err := a.Read(ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Error("SeededReader not deterministic")
	}
	c := NewSeededReader("other")
	bc := make([]byte, 100)
	if _, err := c.Read(bc); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ba, bc) {
		t.Error("different seeds produced the same stream")
	}
}

func TestFDHDifferentDigests(t *testing.T) {
	pub, _ := dealTestKey(t)
	x1 := pub.fdh(types.DigestBytes([]byte("a")))
	x2 := pub.fdh(types.DigestBytes([]byte("b")))
	if x1.Cmp(x2) == 0 {
		t.Error("fdh collided")
	}
	if x1.Cmp(pub.N) >= 0 || x1.Sign() < 0 {
		t.Error("fdh out of range")
	}
}

func TestLargerThresholds(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping larger-threshold dealing in -short mode")
	}
	// g=2: 3-of-5, matching a 5-replica execution cluster.
	pub, shares, err := Deal(NewSeededReader("3of5"), 512, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := types.DigestBytes([]byte("3of5"))
	rng := NewSeededReader("3of5-sign")
	var sigShares []*SigShare
	for _, ks := range []*KeyShare{shares[4], shares[1], shares[3]} {
		sh, err := ks.Sign(rng, d)
		if err != nil {
			t.Fatal(err)
		}
		sigShares = append(sigShares, sh)
	}
	sig, err := pub.Combine(d, sigShares)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(d, sig); err != nil {
		t.Fatal(err)
	}
}

func TestDealDeterministicAcrossProcesses(t *testing.T) {
	// Two independent dealings from the same seed must produce identical
	// keys and shares: multi-process deployments re-derive the dealt key
	// in every process (crypto/rand.Prime deliberately prevents this,
	// which is why the package has its own deterministic generator).
	pub1, sh1, err := Deal(NewSeededReader("cross-process"), 512, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pub2, sh2, err := Deal(NewSeededReader("cross-process"), 512, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pub1.N.Cmp(pub2.N) != 0 || pub1.V.Cmp(pub2.V) != 0 {
		t.Fatal("public keys differ across dealings from the same seed")
	}
	for i := range sh1 {
		if sh1[i].S.Cmp(sh2[i].S) != 0 {
			t.Fatalf("share %d differs across dealings", i+1)
		}
	}
	// And shares from dealing 1 verify against dealing 2's public key.
	d := types.DigestBytes([]byte("cross"))
	sh, err := sh1[0].Sign(NewSeededReader("s"), d)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub2.VerifyShare(d, sh); err != nil {
		t.Fatalf("cross-process share verification failed: %v", err)
	}
}

func TestDeterministicPrimeProperties(t *testing.T) {
	rng := NewSeededReader("primes")
	for i := 0; i < 3; i++ {
		p, err := deterministicPrime(rng, 128)
		if err != nil {
			t.Fatal(err)
		}
		if p.BitLen() != 128 {
			t.Errorf("prime has %d bits, want 128", p.BitLen())
		}
		if !p.ProbablyPrime(64) {
			t.Error("deterministicPrime returned a composite")
		}
	}
	if _, err := deterministicPrime(rng, 8); err == nil {
		t.Error("accepted absurdly small prime size")
	}
}

func TestRandIntBounds(t *testing.T) {
	rng := NewSeededReader("randint")
	max := big.NewInt(1000)
	for i := 0; i < 200; i++ {
		v, err := randInt(rng, max)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() < 0 || v.Cmp(max) >= 0 {
			t.Fatalf("randInt out of range: %v", v)
		}
	}
	if _, err := randInt(rng, big.NewInt(0)); err == nil {
		t.Error("randInt accepted zero bound")
	}
}
