// Package threshold implements Shoup-style RSA threshold signatures
// ("Practical Threshold Signatures", EUROCRYPT 2000), the third certificate
// implementation the paper relies on (§2, §4.1).
//
// A dealer splits an RSA signing key among `players` nodes so that any k of
// them can jointly produce one ordinary RSA signature, while fewer than k
// learn nothing. A signature share is a bare value (Share); a separate,
// non-interactive Chaum–Pedersen-style proof of its correctness (Prove) is
// computed only when a combiner asks for it. The combined signature is an
// ordinary RSA signature, and verifying it decides by itself whether the
// shares were good, so proofs are needed only after a combination failed:
// they let the combiner (a message queue or a privacy firewall top-row
// filter) name and discard the shares fabricated by Byzantine execution
// replicas with one check per share, rather than by trial combination over
// subsets, which a Byzantine executor could force to cost C(2g+1, g+1)
// combinations per bundle.
//
// The scheme matters for confidentiality, not just cost amortization: a
// combined threshold signature is byte-identical no matter which correct
// subset of executors contributed, which closes the covert channel that
// certificate membership sets would otherwise provide (§4.2.2).
//
// Implementation notes:
//
//   - Signing is full-domain-hash RSA: the message digest is expanded to the
//     modulus size with a SHA-256 counter MGF and signed directly.
//   - Shares are points of a degree k-1 polynomial over Z_m with m = λ(N);
//     combination uses integer Lagrange coefficients scaled by Δ = players!
//     and recovers the plain RSA signature with a Bézout step, exactly as in
//     Shoup's paper (we skip the safe-prime requirement, which the paper
//     needs only for its proof machinery, not for correctness).
//   - All arithmetic is math/big; no assembly, no external deps.
package threshold

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/types"
	"repro/internal/wire"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
	// ErrBadShare reports a signature share whose correctness proof failed.
	ErrBadShare = errors.New("threshold: invalid signature share")
	// ErrBadSignature reports a combined signature that fails verification.
	ErrBadSignature = errors.New("threshold: invalid signature")
	// ErrNotEnoughShares reports fewer valid shares than the threshold k.
	ErrNotEnoughShares = errors.New("threshold: not enough valid shares")
)

// PublicKey is the group's public key plus per-player verification keys.
type PublicKey struct {
	N       *big.Int   // RSA modulus
	E       *big.Int   // public exponent
	K       int        // threshold: shares needed to sign
	Players int        // total shares dealt
	V       *big.Int   // verification base (a generator of the squares)
	VKs     []*big.Int // VKs[i-1] = V^{s_i} mod N, player i's verification key
}

// KeyShare is one player's secret share of the signing exponent.
type KeyShare struct {
	Pub   *PublicKey
	Index int      // 1-based player index
	S     *big.Int // share s_i = f(i) mod λ(N)
}

// SigShare is one player's contribution to a signature: x_i = x^{2Δ s_i} and,
// once proven, a Fiat–Shamir proof (Z, C) that x_i was computed with the same
// exponent as the player's verification key. A bare share has no proof.
type SigShare struct {
	Index int
	Xi    *big.Int
	Z     *big.Int
	C     *big.Int
}

// delta returns Δ = players!.
func (pk *PublicKey) delta() *big.Int {
	d := big.NewInt(1)
	for i := 2; i <= pk.Players; i++ {
		d.Mul(d, big.NewInt(int64(i)))
	}
	return d
}

// modBytes returns the modulus size in bytes.
func (pk *PublicKey) modBytes() int { return (pk.N.BitLen() + 7) / 8 }

// fdh expands a digest to a full-domain element of Z_N via a counter MGF.
func (pk *PublicKey) fdh(digest types.Digest) *big.Int {
	need := pk.modBytes() + 8 // oversample, then reduce mod N
	out := make([]byte, 0, need+sha256.Size)
	var ctr [4]byte
	for i := uint32(0); len(out) < need; i++ {
		binary.BigEndian.PutUint32(ctr[:], i)
		h := sha256.New()
		h.Write([]byte("saebft-fdh"))
		h.Write(digest[:])
		h.Write(ctr[:])
		out = h.Sum(out)
	}
	x := new(big.Int).SetBytes(out[:need])
	return x.Mod(x, pk.N)
}

// Deal generates a fresh RSA modulus of the given bit size and splits the
// signing exponent into `players` shares with threshold k. The randomness
// source rng may be a deterministic reader for reproducible deployments.
func Deal(rng io.Reader, bits, k, players int) (*PublicKey, []*KeyShare, error) {
	if k < 1 || players < k {
		return nil, nil, fmt.Errorf("threshold: invalid parameters k=%d players=%d", k, players)
	}
	if bits < 256 {
		return nil, nil, fmt.Errorf("threshold: modulus too small (%d bits)", bits)
	}
	e := big.NewInt(65537)
	if players >= 65537 {
		return nil, nil, errors.New("threshold: too many players for e=65537")
	}

	var n, m *big.Int
	for {
		p, err := deterministicPrime(rng, bits/2)
		if err != nil {
			return nil, nil, err
		}
		q, err := deterministicPrime(rng, bits-bits/2)
		if err != nil {
			return nil, nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n = new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		// m = lcm(p-1, q-1) = λ(N), the exponent of (Z/N)*: exponent
		// arithmetic for every element of the group is valid mod m.
		g := new(big.Int).GCD(nil, nil, pm1, qm1)
		m = new(big.Int).Mul(pm1, qm1)
		m.Quo(m, g)
		if new(big.Int).GCD(nil, nil, e, m).Cmp(one) == 0 {
			break
		}
	}
	d := new(big.Int).ModInverse(e, m)

	// Shamir-share d with a random degree k-1 polynomial over Z_m.
	coeffs := make([]*big.Int, k)
	coeffs[0] = d
	for i := 1; i < k; i++ {
		c, err := randInt(rng, m)
		if err != nil {
			return nil, nil, err
		}
		coeffs[i] = c
	}
	evalAt := func(x int64) *big.Int {
		acc := new(big.Int)
		xb := big.NewInt(x)
		for i := len(coeffs) - 1; i >= 0; i-- {
			acc.Mul(acc, xb)
			acc.Add(acc, coeffs[i])
			acc.Mod(acc, m)
		}
		return acc
	}

	// Verification base: a random square mod N.
	r, err := randInt(rng, n)
	if err != nil {
		return nil, nil, err
	}
	v := new(big.Int).Exp(r, two, n)

	pub := &PublicKey{N: n, E: e, K: k, Players: players, V: v, VKs: make([]*big.Int, players)}
	shares := make([]*KeyShare, players)
	for i := 1; i <= players; i++ {
		s := evalAt(int64(i))
		shares[i-1] = &KeyShare{Pub: pub, Index: i, S: s}
		pub.VKs[i-1] = new(big.Int).Exp(v, s, n)
	}
	return pub, shares, nil
}

// proofChallenge computes the Fiat–Shamir challenge for a share proof.
func proofChallenge(pk *PublicKey, xt, vi, xi2, vp, xp *big.Int) *big.Int {
	d := types.DigestConcat(
		[]byte("saebft-tsig-proof"),
		pk.V.Bytes(), xt.Bytes(), vi.Bytes(), xi2.Bytes(), vp.Bytes(), xp.Bytes(),
	)
	return new(big.Int).SetBytes(d[:])
}

// Sign produces this player's signature share over digest with its proof of
// correctness: Share followed by Prove. rng supplies the proof's blinding
// randomness.
func (ks *KeyShare) Sign(rng io.Reader, digest types.Digest) (*SigShare, error) {
	sh := ks.Share(digest)
	if err := ks.Prove(rng, digest, sh); err != nil {
		return nil, err
	}
	return sh, nil
}

// Share produces this player's bare signature share over digest: x_i, with
// Z and C left empty. It is deterministic and draws no randomness; its one
// exponentiation is about a fifth of what Sign costs.
func (ks *KeyShare) Share(digest types.Digest) *SigShare {
	pk := ks.Pub
	exp := new(big.Int).Lsh(pk.delta(), 1) // 2Δ
	exp.Mul(exp, ks.S)
	return &SigShare{Index: ks.Index, Xi: new(big.Int).Exp(pk.fdh(digest), exp, pk.N)}
}

// Prove fills in the proof of correctness of sh, this player's share over
// digest as Share produced it. rng supplies the proof's blinding randomness.
func (ks *KeyShare) Prove(rng io.Reader, digest types.Digest, sh *SigShare) error {
	pk := ks.Pub
	if sh.Index != ks.Index || sh.Xi == nil {
		return ErrBadShare
	}
	// Proof that log_v(v_i) == log_{x^{4Δ}}(x_i^2), i.e. the share used s_i.
	xt := new(big.Int).Exp(pk.fdh(digest), new(big.Int).Lsh(pk.delta(), 2), pk.N) // x^{4Δ}
	xi2 := new(big.Int).Exp(sh.Xi, two, pk.N)

	// Blinding exponent: |N| + 2*256 bits, per Shoup's statistical hiding.
	bound := new(big.Int).Lsh(one, uint(pk.N.BitLen()+512))
	r, err := randInt(rng, bound)
	if err != nil {
		return err
	}
	vp := new(big.Int).Exp(pk.V, r, pk.N)
	xp := new(big.Int).Exp(xt, r, pk.N)
	c := proofChallenge(pk, xt, pk.VKs[ks.Index-1], xi2, vp, xp)
	z := new(big.Int).Mul(ks.S, c)
	sh.Z, sh.C = z.Add(z, r), c
	return nil
}

// HasProof reports whether the share carries a proof at all; whether the
// proof holds is VerifyShare's question.
func (sh *SigShare) HasProof() bool {
	return sh.Z != nil && sh.C != nil && sh.Z.Sign() > 0 && sh.C.Sign() > 0
}

// VerifyShare checks a signature share's correctness proof. A share that
// carries no proof is refused.
func (pk *PublicKey) VerifyShare(digest types.Digest, sh *SigShare) error {
	// A correct proof has a SHA-256 challenge C and a response Z = s·C + r
	// with s < N and r < 2^(|N|+512); anything larger is refused before it
	// can be used as an exponent.
	if !pk.wellFormed(sh) || !sh.HasProof() ||
		sh.C.BitLen() > 8*sha256.Size || sh.Z.BitLen() > pk.N.BitLen()+513 {
		return ErrBadShare
	}
	x := pk.fdh(digest)
	delta := pk.delta()
	xt := new(big.Int).Exp(x, new(big.Int).Lsh(delta, 2), pk.N)
	xi2 := new(big.Int).Exp(sh.Xi, two, pk.N)
	vi := pk.VKs[sh.Index-1]

	// vp = v^z * v_i^{-c}, xp = xt^z * (x_i^2)^{-c}
	viInv := new(big.Int).ModInverse(vi, pk.N)
	xi2Inv := new(big.Int).ModInverse(xi2, pk.N)
	if viInv == nil || xi2Inv == nil {
		return ErrBadShare
	}
	vp := new(big.Int).Exp(pk.V, sh.Z, pk.N)
	vp.Mul(vp, new(big.Int).Exp(viInv, sh.C, pk.N)).Mod(vp, pk.N)
	xp := new(big.Int).Exp(xt, sh.Z, pk.N)
	xp.Mul(xp, new(big.Int).Exp(xi2Inv, sh.C, pk.N)).Mod(xp, pk.N)

	if proofChallenge(pk, xt, vi, xi2, vp, xp).Cmp(sh.C) != 0 {
		return ErrBadShare
	}
	return nil
}

// lagrange returns λ^S_{0,i} = Δ · Π_{j∈S\{i}} (0-j)/(i-j) as an exact
// integer (Δ = players! clears all denominators).
func (pk *PublicKey) lagrange(indices []int, i int) *big.Int {
	num := pk.delta()
	den := big.NewInt(1)
	ib := big.NewInt(int64(i))
	for _, j := range indices {
		if j == i {
			continue
		}
		num.Mul(num, big.NewInt(int64(-j)))
		den.Mul(den, new(big.Int).Sub(ib, big.NewInt(int64(j))))
	}
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		// Cannot happen: Δ·l_i(0) is always integral.
		panic("threshold: non-integral Lagrange coefficient")
	}
	return q
}

// wellFormed reports whether a share passes the range checks that need no
// arithmetic: a player index of this key and 0 < Xi < N.
func (pk *PublicKey) wellFormed(sh *SigShare) bool {
	return sh != nil && sh.Index >= 1 && sh.Index <= pk.Players &&
		sh.Xi != nil && sh.Xi.Sign() > 0 && sh.Xi.Cmp(pk.N) < 0
}

// Combine assembles the unique RSA signature over digest from at least K
// valid shares of distinct players. The result is independent of which valid
// subset contributed.
//
// The combined signature is checked against the public key before it is
// returned, and that check alone decides the result, so Combine is
// optimistic: it first interpolates the K lowest-indexed well-formed shares,
// bare or proven, without checking any proof. Only when that signature fails
// does it check every share's proof and combine the K lowest-indexed valid
// ones; a bare share counts as invalid there. Given exactly K shares a
// failure cannot be repaired by discarding any of them, so no proof is
// checked: fewer than K are valid. A caller that wants to name the culprit
// obtains the proofs and checks them itself with VerifyShare.
func (pk *PublicKey) Combine(digest types.Digest, shares []*SigShare) ([]byte, error) {
	sig, err := pk.combine(digest, shares, false)
	switch {
	case err == nil || errors.Is(err, ErrNotEnoughShares):
		return sig, err
	case len(shares) == pk.K:
		return nil, fmt.Errorf("%w: the %d given do not combine", ErrNotEnoughShares, pk.K)
	}
	return pk.combine(digest, shares, true)
}

// combine interpolates K of the shares and verifies the result. With proven
// set it uses only shares that pass VerifyShare.
func (pk *PublicKey) combine(digest types.Digest, shares []*SigShare, proven bool) ([]byte, error) {
	// Keep the first usable share per player until we have K of them, in
	// ascending player order for determinism.
	valid := make(map[int]*SigShare)
	for _, sh := range shares {
		if !pk.wellFormed(sh) || valid[sh.Index] != nil {
			continue
		}
		if !proven || pk.VerifyShare(digest, sh) == nil {
			valid[sh.Index] = sh
		}
	}
	if len(valid) < pk.K {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(valid), pk.K)
	}
	indices := make([]int, 0, pk.K)
	for i := 1; i <= pk.Players && len(indices) < pk.K; i++ {
		if valid[i] != nil {
			indices = append(indices, i)
		}
	}

	x := pk.fdh(digest)
	// w = Π x_i^{2λ_i} = x^{4Δ²d}
	w := big.NewInt(1)
	for _, i := range indices {
		lam := pk.lagrange(indices, i)
		lam.Lsh(lam, 1) // 2λ_i
		var term *big.Int
		if lam.Sign() < 0 {
			inv := new(big.Int).ModInverse(valid[i].Xi, pk.N)
			if inv == nil {
				return nil, ErrBadShare
			}
			term = new(big.Int).Exp(inv, lam.Neg(lam), pk.N)
		} else {
			term = new(big.Int).Exp(valid[i].Xi, lam, pk.N)
		}
		w.Mul(w, term).Mod(w, pk.N)
	}

	// w^e = x^{4Δ²}; recover y with y = w^a x^b where a·4Δ² + b·e = 1.
	delta := pk.delta()
	ePrime := new(big.Int).Mul(delta, delta)
	ePrime.Lsh(ePrime, 2) // 4Δ²
	a, b := new(big.Int), new(big.Int)
	g := new(big.Int).GCD(a, b, ePrime, pk.E)
	if g.Cmp(one) != 0 {
		return nil, errors.New("threshold: gcd(4Δ², e) != 1")
	}
	y := big.NewInt(1)
	if a.Sign() < 0 {
		wInv := new(big.Int).ModInverse(w, pk.N)
		if wInv == nil {
			return nil, ErrBadShare
		}
		y.Mul(y, new(big.Int).Exp(wInv, new(big.Int).Neg(a), pk.N))
	} else {
		y.Mul(y, new(big.Int).Exp(w, a, pk.N))
	}
	y.Mod(y, pk.N)
	var xb *big.Int
	if b.Sign() < 0 {
		xInv := new(big.Int).ModInverse(x, pk.N)
		if xInv == nil {
			return nil, ErrBadShare
		}
		xb = new(big.Int).Exp(xInv, new(big.Int).Neg(b), pk.N)
	} else {
		xb = new(big.Int).Exp(x, b, pk.N)
	}
	y.Mul(y, xb).Mod(y, pk.N)

	sig := y.FillBytes(make([]byte, pk.modBytes()))
	if err := pk.Verify(digest, sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// Verify checks a combined signature: y^e mod N == FDH(digest).
func (pk *PublicKey) Verify(digest types.Digest, sig []byte) error {
	if len(sig) != pk.modBytes() {
		return ErrBadSignature
	}
	y := new(big.Int).SetBytes(sig)
	if y.Cmp(pk.N) >= 0 {
		return ErrBadSignature
	}
	if new(big.Int).Exp(y, pk.E, pk.N).Cmp(pk.fdh(digest)) != 0 {
		return ErrBadSignature
	}
	return nil
}

// --- share wire encoding ----------------------------------------------------

// Marshal encodes the share for transport inside an ExecReply. A bare
// share's proof fields are encoded empty.
func (sh *SigShare) Marshal() []byte {
	var w wire.Writer
	w.U32(uint32(sh.Index))
	for _, x := range []*big.Int{sh.Xi, sh.Z, sh.C} {
		var b []byte
		if x != nil {
			b = x.Bytes()
		}
		w.Bytes(b)
	}
	return w.B
}

// UnmarshalSigShare decodes a share produced by Marshal, bare or proven.
// Only that encoding is accepted (minimal big-endian integers, no trailing
// bytes), so a share has exactly one byte representation. Empty proof
// fields decode as zero, which HasProof reports as no proof.
func UnmarshalSigShare(b []byte) (*SigShare, error) {
	r := wire.NewReader(b)
	index := int(r.U32())
	xi, z, c := r.Bytes(), r.Bytes(), r.Bytes()
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, errors.New("threshold: malformed signature share")
	}
	for _, f := range [][]byte{xi, z, c} {
		if len(f) > 0 && f[0] == 0 {
			return nil, errors.New("threshold: non-canonical signature share")
		}
	}
	return &SigShare{
		Index: index,
		Xi:    new(big.Int).SetBytes(xi),
		Z:     new(big.Int).SetBytes(z),
		C:     new(big.Int).SetBytes(c),
	}, nil
}

// deterministicPrime generates a prime of exactly the given bit length as a
// pure function of the reader's byte stream. crypto/rand.Prime deliberately
// breaks such determinism (randutil.MaybeReadByte), but this package needs
// it: every process of a deployment re-derives the same dealt key from the
// shared seed, standing in for a trusted dealer's distribution channel.
//
// math/big's ProbablyPrime(64) combines 64 Miller-Rabin rounds (bases drawn
// deterministically from the candidate) with a Baillie-PSW test, so the
// primality decision is reproducible too.
func deterministicPrime(rng io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, errors.New("threshold: prime too small")
	}
	nbytes := (bits + 7) / 8
	buf := make([]byte, nbytes)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		// Clear excess high bits, then force the top two bits (so p·q has
		// full length) and the low bit (odd).
		excess := nbytes*8 - bits
		buf[0] &= 0xFF >> excess
		hi := 7 - excess // bit bits-1 within buf[0]
		buf[0] |= 1 << hi
		if hi > 0 {
			buf[0] |= 1 << (hi - 1) // bit bits-2
		} else {
			buf[1] |= 0x80
		}
		buf[nbytes-1] |= 1
		p := new(big.Int).SetBytes(buf)
		// Walk forward to the next prime; bail out to fresh randomness if
		// the walk would overflow the bit length.
		limit := new(big.Int).Lsh(one, uint(bits))
		step := big.NewInt(2)
		for i := 0; i < 4096; i++ {
			if p.Cmp(limit) >= 0 {
				break
			}
			if p.ProbablyPrime(64) {
				return p, nil
			}
			p.Add(p, step)
		}
	}
}

// randInt returns a uniform value in [0, max) as a pure function of the
// reader (rejection sampling; no MaybeReadByte).
func randInt(rng io.Reader, max *big.Int) (*big.Int, error) {
	if max.Sign() <= 0 {
		return nil, errors.New("threshold: non-positive randInt bound")
	}
	bitLen := max.BitLen()
	nbytes := (bitLen + 7) / 8
	excess := nbytes*8 - bitLen
	buf := make([]byte, nbytes)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		buf[0] &= 0xFF >> excess
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(max) < 0 {
			return v, nil
		}
	}
}

// --- deterministic randomness ------------------------------------------------

// SeededReader is a deterministic io.Reader backed by a SHA-256 counter DRBG.
// It exists so tests and reproducible deployments can deal identical keys;
// production deployments pass crypto/rand.Reader to Deal instead.
type SeededReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

// NewSeededReader returns a deterministic reader for the given seed.
func NewSeededReader(seed string) *SeededReader {
	return &SeededReader{seed: sha256.Sum256([]byte(seed))}
}

// Read implements io.Reader; the stream is SHA256(seed || counter) blocks.
func (s *SeededReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(s.buf) == 0 {
			h := sha256.New()
			h.Write(s.seed[:])
			var c [8]byte
			binary.BigEndian.PutUint64(c[:], s.ctr)
			s.ctr++
			h.Write(c[:])
			s.buf = h.Sum(nil)
		}
		c := copy(p[n:], s.buf)
		s.buf = s.buf[c:]
		n += c
	}
	return n, nil
}
