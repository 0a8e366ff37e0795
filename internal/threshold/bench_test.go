package threshold

import (
	"math/big"
	"testing"

	"repro/internal/types"
)

// Micro-benchmarks of the share primitives at the 512-bit size the tests and
// the firewall-sim workload use (run with -benchmem). Combine/clean is the
// common case, K correct shares; Combine/one-bad has a lying share among the
// K lowest of K+1, so the proofs must run to find K valid ones.

func benchShares(b *testing.B) (*PublicKey, []*KeyShare, types.Digest, []*SigShare) {
	b.Helper()
	pub, keys, err := Deal(NewSeededReader("threshold-bench"), 512, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	d := types.DigestBytes([]byte("bench"))
	rng := NewSeededReader("bench-shares")
	shares := make([]*SigShare, len(keys))
	for i, ks := range keys {
		if shares[i], err = ks.Sign(rng, d); err != nil {
			b.Fatal(err)
		}
	}
	return pub, keys, d, shares
}

func BenchmarkSign(b *testing.B) {
	_, keys, d, _ := benchShares(b)
	rng := NewSeededReader("bench-sign")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := keys[0].Sign(rng, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShare times the bare share an executor computes per bundle.
func BenchmarkShare(b *testing.B) {
	_, keys, d, _ := benchShares(b)
	b.ReportAllocs()
	for b.Loop() {
		keys[0].Share(d)
	}
}

func BenchmarkVerifyShare(b *testing.B) {
	pub, _, d, shares := benchShares(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.VerifyShare(d, shares[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine(b *testing.B) {
	pub, _, d, shares := benchShares(b)
	lying := *shares[0]
	lying.Xi = new(big.Int).Add(lying.Xi, big.NewInt(1))
	for _, bc := range []struct {
		name   string
		shares []*SigShare
	}{
		{"clean", []*SigShare{shares[0], shares[1]}},
		{"one-bad", []*SigShare{&lying, shares[1], shares[2]}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pub.Combine(d, bc.shares); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
