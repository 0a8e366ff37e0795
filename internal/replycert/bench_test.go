package replycert

import (
	"testing"

	"repro/internal/threshold"
	"repro/internal/wire"
)

// BenchmarkAssemblerAdd measures what one arriving threshold share costs a
// top-row filter (run with -benchmem): the first share of a bundle, a share
// from an executor already counted, and a share for a bundle already
// certified. A filter column sees each of the latter two several times per
// slot (every executor answers every copy of the order).
func BenchmarkAssemblerAdd(b *testing.B) {
	pub, keys, err := threshold.Deal(threshold.NewSeededReader("rc-bench"), 512, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	v := NewVerifier(ModeThreshold, testTop, nil, pub)
	es := entries(1)
	msgs := make([]*wire.ExecReply, len(keys))
	for i, ks := range keys {
		sh, err := ks.Sign(threshold.NewSeededReader("rc-bench-share"), wire.BundleDigest(es))
		if err != nil {
			b.Fatal(err)
		}
		msgs[i] = &wire.ExecReply{Entries: es, Executor: testTop.Execution[i], Share: sh.Marshal()}
	}
	add := func(b *testing.B, a *Assembler, m *wire.ExecReply, wantCert bool) {
		cert, err := a.Add(m)
		if err != nil || (cert != nil) != wantCert {
			b.Fatalf("cert=%v err=%v", cert, err)
		}
	}

	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			add(b, NewAssembler(v), msgs[0], false)
		}
	})
	b.Run("duplicate", func(b *testing.B) {
		a := NewAssembler(v)
		add(b, a, msgs[0], false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			add(b, a, msgs[0], false)
		}
	})
	b.Run("late", func(b *testing.B) {
		a := NewAssembler(v)
		add(b, a, msgs[0], false)
		add(b, a, msgs[1], true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			add(b, a, msgs[2], false)
		}
	})
}
