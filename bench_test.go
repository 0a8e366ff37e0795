// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (§5). Each benchmark prints/reports the same quantities
// the paper plots; `go test -bench=. -benchmem` runs them all at quick scale,
// and cmd/saebft-bench (through package saebft/paperfig) renders the full
// tables. They reproduce the paper's figures; the throughput and latency of
// the system itself are measured by the program in benchmark/.
//
// Reported custom metrics:
//
//	virt-ms/op   — virtual-time latency per request (Figure 3, 6, 7)
//	achieved/s   — completed requests per virtual second (Figure 5)
package repro

import (
	"fmt"
	"testing"

	"repro/internal/apps/nfs"
	"repro/internal/apps/nullsrv"
	"repro/internal/auth"
	"repro/internal/bench"
	"repro/internal/bench/costmodel"
	"repro/internal/core"
	"repro/internal/sm"
	"repro/internal/threshold"
	"repro/internal/types"
)

// --- Figure 3: null-server latency ------------------------------------------------

func BenchmarkFig3Latency(b *testing.B) {
	sizes := [][2]int{{40, 40}, {40, 4096}, {4096, 40}}
	for _, sz := range sizes {
		for _, cfg := range bench.Fig3Configs(sz[0], sz[1], 0, 512) {
			cfg := cfg
			name := fmt.Sprintf("%s/%d-%d", cfg.Label, sz[0], sz[1])
			b.Run(name, func(b *testing.B) {
				opts := cfg.Opts
				opts.App = func() sm.StateMachine { return nullsrv.New(cfg.RepSize) }
				opts.Net.MeasureCompute = true
				c, err := core.BuildSim(opts)
				if err != nil {
					b.Fatal(err)
				}
				if cfg.Colocate {
					for i, e := range c.Top.Execution {
						c.Net.Colocate(e, c.Top.Agreement[i%len(c.Top.Agreement)])
					}
				}
				op := nullsrv.MakeRequest(cfg.ReqSize)
				var virt types.Time
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := c.Net.Now()
					if _, err := c.Invoke(0, op, types.Time(60e9)); err != nil {
						b.Fatal(err)
					}
					virt += c.Net.Now() - start
				}
				b.ReportMetric(float64(virt)/1e6/float64(b.N), "virt-ms/op")
			})
		}
	}
}

// --- Figure 4: relative cost model --------------------------------------------------

func BenchmarkFig4CostModel(b *testing.B) {
	p := costmodel.PaperParams()
	var sink float64
	for i := 0; i < b.N; i++ {
		pts := costmodel.Figure4Series(p)
		sink += pts[len(pts)-1].RelCost
	}
	if b.N > 0 && sink == 0 {
		b.Fatal("cost model produced zeros")
	}
	// Report the headline crossovers as metrics.
	b.ReportMetric(costmodel.CrossoverApp(costmodel.SepPriv, costmodel.BASE, p, 10, 0.01, 1000), "xover-b10-ms")
	b.ReportMetric(costmodel.CrossoverApp(costmodel.SepPriv, costmodel.BASE, p, 100, 0.01, 1000), "xover-b100-ms")
}

// --- Figure 5: throughput vs bundle size ----------------------------------------------

func BenchmarkFig5Throughput(b *testing.B) {
	for _, bundle := range []int{1, 2, 3, 5} {
		bundle := bundle
		b.Run(fmt.Sprintf("bundle-%d", bundle), func(b *testing.B) {
			var achieved, resp float64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunThroughput(bench.ThroughputConfig{
					Bundle:        bundle,
					RatePerSec:    800,
					ReqSize:       1024,
					RepSize:       1024,
					Requests:      80,
					ThresholdBits: 512,
				})
				if err != nil {
					b.Fatal(err)
				}
				achieved += res.AchievedPerSec
				resp += res.MeanRespMs
			}
			b.ReportMetric(achieved/float64(b.N), "achieved/s")
			b.ReportMetric(resp/float64(b.N), "resp-ms")
		})
	}
}

// --- Figures 6 and 7: Andrew benchmark --------------------------------------------------

func benchmarkAndrew(b *testing.B, label string, run func() (bench.AndrewResult, error)) {
	b.Helper()
	var virt types.Time
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatalf("%s: %v", label, err)
		}
		virt += res.Total
	}
	b.ReportMetric(float64(virt)/1e6/float64(b.N), "virt-ms/op")
}

func BenchmarkFig6Andrew(b *testing.B) {
	cfg := bench.AndrewConfig{N: 1, Dirs: 2, FilesPerDir: 3, FileSize: 1024}
	b.Run("NoReplication", func(b *testing.B) {
		benchmarkAndrew(b, "norep", func() (bench.AndrewResult, error) {
			return bench.RunAndrew("norep", bench.NewNoRepInvoker(nfs.New()), cfg)
		})
	})
	b.Run("BASE", func(b *testing.B) {
		benchmarkAndrew(b, "BASE", func() (bench.AndrewResult, error) {
			return bench.RunAndrewOnCluster("BASE", bench.AndrewClusterOptions(core.ModeBASE, 512), cfg, bench.FaultNone)
		})
	})
	b.Run("Firewall", func(b *testing.B) {
		benchmarkAndrew(b, "Firewall", func() (bench.AndrewResult, error) {
			return bench.RunAndrewOnCluster("Firewall", bench.AndrewClusterOptions(core.ModeFirewall, 512), cfg, bench.FaultNone)
		})
	})
}

func BenchmarkFig7AndrewFaults(b *testing.B) {
	cfg := bench.AndrewConfig{N: 1, Dirs: 2, FilesPerDir: 3, FileSize: 1024}
	b.Run("FaultyExecServer", func(b *testing.B) {
		benchmarkAndrew(b, "faulty exec", func() (bench.AndrewResult, error) {
			return bench.RunAndrewOnCluster("faulty exec", bench.AndrewClusterOptions(core.ModeFirewall, 512), cfg, bench.FaultExecReplica)
		})
	})
	b.Run("FaultyAgreementNode", func(b *testing.B) {
		benchmarkAndrew(b, "faulty agreement", func() (bench.AndrewResult, error) {
			return bench.RunAndrewOnCluster("faulty agreement", bench.AndrewClusterOptions(core.ModeFirewall, 512), cfg, bench.FaultAgreementReplica)
		})
	})
}

// --- §5.2 primitive costs: threshold signatures, MACs, signatures ------------------------

func thresholdKey(b *testing.B, bits int) (*threshold.PublicKey, []*threshold.KeyShare) {
	b.Helper()
	pub, shares, err := threshold.Deal(threshold.NewSeededReader("bench"), bits, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	return pub, shares
}

func BenchmarkThresholdSignShare(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			_, shares := thresholdKey(b, bits)
			d := types.DigestBytes([]byte("m"))
			rng := threshold.NewSeededReader("sign")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := shares[0].Sign(rng, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkThresholdCombine(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			pub, shares := thresholdKey(b, bits)
			d := types.DigestBytes([]byte("m"))
			rng := threshold.NewSeededReader("combine")
			s1, _ := shares[0].Sign(rng, d)
			s2, _ := shares[1].Sign(rng, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pub.Combine(d, []*threshold.SigShare{s1, s2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkThresholdVerify(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			pub, shares := thresholdKey(b, bits)
			d := types.DigestBytes([]byte("m"))
			rng := threshold.NewSeededReader("verify")
			s1, _ := shares[0].Sign(rng, d)
			s2, _ := shares[1].Sign(rng, d)
			sig, err := pub.Combine(d, []*threshold.SigShare{s1, s2})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pub.Verify(d, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMACAttest(b *testing.B) {
	top := core.BuildTopology(1, 1, 0, 1, core.ModeSeparate)
	mat, err := core.NewMaterial("bench", top, 0)
	if err != nil {
		b.Fatal(err)
	}
	scheme := mat.MACScheme(top.Agreement[0], top.AllNodes())
	d := types.DigestBytes([]byte("m"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Attest(auth.KindOrder, d, top.Execution); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEd25519Attest(b *testing.B) {
	top := core.BuildTopology(1, 1, 0, 1, core.ModeSeparate)
	mat, err := core.NewMaterial("bench", top, 0)
	if err != nil {
		b.Fatal(err)
	}
	scheme := mat.SigScheme(top.Agreement[0])
	d := types.DigestBytes([]byte("m"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Attest(auth.KindCommit, d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: cost of scaling each cluster's fault tolerance independently ---

// BenchmarkAblationFaultScale measures request latency as each dimension of
// fault tolerance grows, the design-choice ablation DESIGN.md calls out: the
// separated architecture pays for execution faults with only two replicas
// per additional fault (2g+1) instead of three (3f+1), and firewall depth
// costs two extra hops per additional tolerated filter fault.
func BenchmarkAblationFaultScale(b *testing.B) {
	cases := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"f1-g1", func(o *core.Options) { o.F, o.G = 1, 1 }},
		{"f2-g1", func(o *core.Options) { o.F, o.G = 2, 1 }},
		{"f1-g2", func(o *core.Options) { o.F, o.G = 1, 2 }},
		{"f2-g2", func(o *core.Options) { o.F, o.G = 2, 2 }},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			opts := core.Options{
				Mode:               core.ModeSeparate,
				BatchSize:          1,
				CheckpointInterval: 128,
				WindowSize:         512,
				Pipeline:           64,
				RequestTimeout:     types.Millisecond(2000),
				ClientRetransmit:   types.Millisecond(1000),
				App:                func() sm.StateMachine { return nullsrv.New(128) },
			}
			opts.Net.MeasureCompute = true
			tc.mutate(&opts)
			c, err := core.BuildSim(opts)
			if err != nil {
				b.Fatal(err)
			}
			op := nullsrv.MakeRequest(128)
			var virt types.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := c.Net.Now()
				if _, err := c.Invoke(0, op, types.Time(60e9)); err != nil {
					b.Fatal(err)
				}
				virt += c.Net.Now() - start
			}
			b.ReportMetric(float64(virt)/1e6/float64(b.N), "virt-ms/op")
		})
	}
}

// BenchmarkAblationFirewallDepth grows the filter grid: each extra tolerated
// filter fault adds one row (two hops round trip) and one column.
func BenchmarkAblationFirewallDepth(b *testing.B) {
	for _, h := range []int{1, 2} {
		h := h
		b.Run(fmt.Sprintf("h%d", h), func(b *testing.B) {
			opts := core.Options{
				Mode:               core.ModeFirewall,
				H:                  h,
				BatchSize:          1,
				CheckpointInterval: 128,
				WindowSize:         512,
				Pipeline:           64,
				ThresholdBits:      512,
				RequestTimeout:     types.Millisecond(2000),
				ClientRetransmit:   types.Millisecond(1000),
				App:                func() sm.StateMachine { return nullsrv.New(128) },
			}
			opts.Net.MeasureCompute = true
			c, err := core.BuildSim(opts)
			if err != nil {
				b.Fatal(err)
			}
			op := nullsrv.MakeRequest(128)
			var virt types.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := c.Net.Now()
				if _, err := c.Invoke(0, op, types.Time(60e9)); err != nil {
					b.Fatal(err)
				}
				virt += c.Net.Now() - start
			}
			b.ReportMetric(float64(virt)/1e6/float64(b.N), "virt-ms/op")
		})
	}
}
