package bench

import (
	"testing"

	"repro/internal/apps/nfs"
	"repro/internal/core"
)

// These tests assert the *shapes* the paper reports, at small scale so the
// suite stays fast; the full sweeps live behind the root-level benchmark
// targets and cmd/saebft-bench.

func TestFig3LatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("latency harness in -short mode")
	}
	// Medians, not means: MeasureCompute charges real wall time, so a GC
	// pause or CPU contention from parallel test packages can blow up a
	// single sample.
	//
	// 2048-bit threshold keys: the assertions state the paper's regime,
	// where a share signature (15 ms on its testbed) dwarfs a MAC round
	// trip. At 512 bits a share costs about what a MAC round trip does. At
	// 2048 bits an executor's bare share takes ~3.5 ms (~12 ms with the
	// proof, which it computes only when a combiner asks): threshold
	// latency sits ~4x above MAC here, against the 2x asserted.
	results := make(map[string]float64)
	for _, cfg := range Fig3Configs(40, 40, 15, 2048) {
		res, err := RunLatency(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		if res.MedianMs <= 0 {
			t.Fatalf("%s: nonpositive latency", cfg.Label)
		}
		results[cfg.Label] = res.MedianMs
	}
	// The paper's ordering: MAC configurations are fast; threshold
	// signatures dominate; the firewall is in the threshold regime, above
	// the MAC configurations.
	if results["Separate/Different/Thresh"] < 2*results["Separate/Different/MAC"] {
		t.Errorf("threshold (%.2fms) should clearly dominate MAC (%.2fms)",
			results["Separate/Different/Thresh"], results["Separate/Different/MAC"])
	}
	if results["Priv/Different/Thresh"] < 2*results["Separate/Different/MAC"] {
		t.Errorf("firewall (%.2fms) should sit in the threshold regime, not the MAC regime (%.2fms)",
			results["Priv/Different/Thresh"], results["Separate/Different/MAC"])
	}
	if results["BASE/Same/MAC"] > results["Separate/Different/Thresh"] {
		t.Errorf("BASE/MAC (%.2fms) should be far below threshold configs (%.2fms)",
			results["BASE/Same/MAC"], results["Separate/Different/Thresh"])
	}
}

func TestFig5BundlingRaisesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput harness in -short mode")
	}
	// 2048-bit threshold keys, for the reason given in
	// TestFig3LatencyOrdering: signing must be the bottleneck the figure
	// is about, which at 512 bits it is not.
	high := 800.0
	one, err := RunThroughput(ThroughputConfig{
		Bundle: 1, RatePerSec: high, ReqSize: 1024, RepSize: 1024,
		Requests: 50, ThresholdBits: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	three, err := RunThroughput(ThroughputConfig{
		Bundle: 3, RatePerSec: high, ReqSize: 1024, RepSize: 1024,
		Requests: 50, ThresholdBits: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	// §5.3/Figure 5: bundle=1 saturates at the signing rate; bundling
	// multiplies achievable throughput. The 1.5x bound (paper: ~3x) leaves
	// headroom for CPU contention when the whole suite runs in parallel —
	// MeasureCompute charges real wall time.
	if three.AchievedPerSec < 1.5*one.AchievedPerSec {
		t.Errorf("bundle=3 achieved %.1f/s, bundle=1 %.1f/s; expected clear gain from amortized signing",
			three.AchievedPerSec, one.AchievedPerSec)
	}
	if one.MeanRespMs < 5 {
		t.Errorf("bundle=1 at saturation should queue (mean %.2fms)", one.MeanRespMs)
	}
}

func TestFig5LowLoadBundlePenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput harness in -short mode")
	}
	low := 100.0
	one, err := RunThroughput(ThroughputConfig{
		Bundle: 1, RatePerSec: low, ReqSize: 1024, RepSize: 1024,
		Requests: 30, ThresholdBits: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	five, err := RunThroughput(ThroughputConfig{
		Bundle: 5, RatePerSec: low, ReqSize: 1024, RepSize: 1024,
		Requests: 30, ThresholdBits: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	// "our current prototype uses a static bundle size, so increasing
	// bundle sizes increases latency at low loads" (§5.3). The structural
	// floor is the 20ms partial-bundle wait; assert the floor is present,
	// and the relative comparison only when the bundle=1 run was not
	// itself inflated by suite-level CPU contention.
	if five.MeanRespMs < 5 {
		t.Errorf("bundle=5 at low load (%.2fms) shows no partial-bundle wait floor", five.MeanRespMs)
	}
	if one.MeanRespMs < 5 && five.MeanRespMs <= one.MeanRespMs {
		t.Errorf("bundle=5 at low load (%.2fms) should be slower than bundle=1 (%.2fms)",
			five.MeanRespMs, one.MeanRespMs)
	}
}

func TestFig6AndrewOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("Andrew harness in -short mode")
	}
	cfg := AndrewConfig{N: 1, Dirs: 2, FilesPerDir: 3, FileSize: 1024}
	norep, err := RunAndrew("norep", NewNoRepInvoker(nfs.New()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunAndrewOnCluster("BASE", AndrewClusterOptions(core.ModeBASE, 512), cfg, FaultNone)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := RunAndrewOnCluster("Firewall", AndrewClusterOptions(core.ModeFirewall, 512), cfg, FaultNone)
	if err != nil {
		t.Fatal(err)
	}
	if !(norep.Total < base.Total && base.Total < fw.Total) {
		t.Errorf("ordering violated: norep=%v base=%v fw=%v", norep.Total, base.Total, fw.Total)
	}
	// Paper: BASE is ~2x no-replication; the firewall is a modest factor
	// over BASE (16% on their testbed with hardware threshold assist; we
	// allow a generous envelope for software crypto and extra hops).
	if fw.Total > 5*base.Total {
		t.Errorf("firewall (%v) more than 5x BASE (%v); amortization broken", fw.Total, base.Total)
	}
	for p := 0; p < 5; p++ {
		if fw.Phases[p] == 0 || base.Phases[p] == 0 {
			t.Errorf("phase %d has a zero time; instrumentation broken", p+1)
		}
	}
}

func TestFig7FaultsHaveMinorImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("Andrew harness in -short mode")
	}
	cfg := AndrewConfig{N: 1, Dirs: 2, FilesPerDir: 3, FileSize: 1024}
	clean, err := RunAndrewOnCluster("clean", AndrewClusterOptions(core.ModeFirewall, 512), cfg, FaultNone)
	if err != nil {
		t.Fatal(err)
	}
	execFault, err := RunAndrewOnCluster("faulty server", AndrewClusterOptions(core.ModeFirewall, 512), cfg, FaultExecReplica)
	if err != nil {
		t.Fatal(err)
	}
	agFault, err := RunAndrewOnCluster("faulty agreement", AndrewClusterOptions(core.ModeFirewall, 512), cfg, FaultAgreementReplica)
	if err != nil {
		t.Fatal(err)
	}
	// "the faults only have a minor impact on the completion time" (§5.4).
	if execFault.Total > 2*clean.Total {
		t.Errorf("crashed executor doubled completion time: %v vs %v", execFault.Total, clean.Total)
	}
	if agFault.Total > 2*clean.Total {
		t.Errorf("crashed agreement replica doubled completion time: %v vs %v", agFault.Total, clean.Total)
	}
}

func TestNoRepInvoker(t *testing.T) {
	inv := NewNoRepInvoker(nfs.New())
	b, err := inv.Invoke(nfs.Mkdir(nfs.RootHandle, "d", 0o755))
	if err != nil {
		t.Fatal(err)
	}
	st, a, err := nfs.DecodeAttrReply(b)
	if err != nil || st != nfs.StatusOK || a.Type != nfs.TypeDir {
		t.Fatalf("mkdir via norep: st=%v attr=%+v err=%v", st, a, err)
	}
	if inv.Now() == 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestFigure4Renders(t *testing.T) {
	out := Figure4()
	if len(out) < 100 {
		t.Errorf("Figure4 output suspiciously short: %q", out)
	}
}
