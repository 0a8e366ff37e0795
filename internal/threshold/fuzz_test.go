package threshold

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// encodeShare builds a share encoding from raw field bytes, canonical or not.
func encodeShare(index uint32, xi, z, c []byte) []byte {
	var w wire.Writer
	w.U32(index)
	w.Bytes(xi)
	w.Bytes(z)
	w.Bytes(c)
	return w.B
}

// FuzzSigShareDecode throws arbitrary bytes at the share decoder and at the
// arithmetic behind it. The decoder accepts exactly the encodings Marshal
// produces (so a share has one byte representation); VerifyShare and Combine
// never panic, whatever Xi is — zero, out of range, or sharing a factor with
// the modulus so that it has no inverse — and Combine never returns a
// signature that Verify would refuse.
func FuzzSigShareDecode(f *testing.F) {
	pub, shares, err := Deal(NewSeededReader("threshold-test"), 512, 2, 3)
	if err != nil {
		f.Fatal(err)
	}
	d := types.DigestBytes([]byte("fuzz-share"))
	rng := NewSeededReader("fuzz-share")
	good := make([]*SigShare, len(shares))
	for i, ks := range shares {
		if good[i], err = ks.Sign(rng, d); err != nil {
			f.Fatal(err)
		}
	}

	// A second key whose factors are known, so the corpus can hold a share
	// value that is not invertible mod N.
	p, err := deterministicPrime(NewSeededReader("fuzz-p"), 128)
	if err != nil {
		f.Fatal(err)
	}
	q, err := deterministicPrime(NewSeededReader("fuzz-q"), 128)
	if err != nil {
		f.Fatal(err)
	}
	known := &PublicKey{
		N: new(big.Int).Mul(p, q), E: big.NewInt(65537), K: 2, Players: 3,
		V: big.NewInt(4), VKs: []*big.Int{big.NewInt(16), big.NewInt(64), big.NewInt(256)},
	}

	valid := good[0].Marshal()
	f.Add(valid)
	f.Add(good[2].Marshal())
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1])                                                           // truncated
	f.Add(append(append([]byte(nil), valid...), 0))                                       // trailing byte
	f.Add(encodeShare(1, append([]byte{0}, good[0].Xi.Bytes()...), []byte{1}, []byte{1})) // leading zero
	f.Add(encodeShare(1, nil, good[0].Z.Bytes(), good[0].C.Bytes()))                      // Xi = 0
	f.Add(encodeShare(1, pub.N.Bytes(), good[0].Z.Bytes(), good[0].C.Bytes()))            // Xi = N
	f.Add(encodeShare(2, p.Bytes(), []byte{7}, []byte{9}))                                // gcd(Xi, known.N) = p
	f.Add(encodeShare(99, []byte{5}, []byte{7}, []byte{9}))                               // index out of range
	f.Add(encodeShare(1, good[0].Xi.Bytes(), nil, nil))                                   // empty proof

	f.Fuzz(func(t *testing.T, data []byte) {
		sh, err := UnmarshalSigShare(data)
		if err != nil {
			return
		}
		if !bytes.Equal(sh.Marshal(), data) {
			t.Fatalf("accepted a non-canonical encoding: %x", data)
		}
		for _, pk := range []*PublicKey{pub, known} {
			_ = pk.VerifyShare(d, sh)
			// Beside one, then two, correct shares of the first key: the
			// exactly-K and the proving path.
			for _, with := range [][]*SigShare{{sh, good[1]}, {sh, good[1], good[2]}, {sh, sh, good[0]}} {
				sig, err := pk.Combine(d, with)
				if err == nil && pk.Verify(d, sig) != nil {
					t.Fatalf("Combine returned a signature Verify refuses")
				}
			}
		}
	})
}
