// Package paperfig regenerates the evaluation of the source paper (§5) —
// the tables and figures of Figures 3–7 and the Andrew-N comparison — on the
// simulated cluster with compute-time accounting. It is the public facade
// over the reproduction that cmd/saebft-bench and examples/nfsandrew drive;
// the embedding API itself lives in package saebft and exports no
// benchmark code.
package paperfig

import (
	"fmt"

	"repro/internal/apps/nfs"
	"repro/internal/bench"
	"repro/internal/core"
)

// Scale selects how long the evaluation benchmarks run.
type Scale int

const (
	// Quick is sized for CI and demos (seconds of wall time).
	Quick Scale = iota
	// Full approaches the paper's run lengths (minutes), with 1024-bit
	// threshold keys.
	Full
)

func (s Scale) scale() bench.Scale {
	if s == Full {
		return bench.FullScale()
	}
	return bench.QuickScale()
}

// Figures lists the paper-evaluation figures RunFigure accepts.
func Figures() []string { return []string{"3", "4", "5", "6", "7"} }

// RunFigure regenerates one table/figure of the paper's evaluation (§5) on
// the simulated cluster with compute-time accounting, returning its
// rendered text:
//
//	"3" — null-server latency table
//	"4" — analytic relative-cost model
//	"5" — response time vs load and bundle size
//	"6" — Andrew-N phase times
//	"7" — Andrew-N with failures
func RunFigure(figure string, scale Scale) (string, error) {
	sc := scale.scale()
	switch figure {
	case "3":
		out, _, err := bench.Figure3(sc)
		return out, err
	case "4":
		return bench.Figure4(), nil
	case "5":
		out, _, err := bench.Figure5(sc)
		return out, err
	case "6":
		out, _, err := bench.Figure6(sc)
		return out, err
	case "7":
		out, _, err := bench.Figure7(sc)
		return out, err
	default:
		return "", fmt.Errorf("paperfig: unknown figure %q (have %v)", figure, Figures())
	}
}

// AndrewConfig sizes the paper's modified Andrew benchmark (§5.4): each of
// N iterations creates Dirs directories of FilesPerDir files of FileSize
// bytes, then stats, reads, and lists them back through the replicated NFS
// service.
type AndrewConfig struct {
	N           int
	Dirs        int
	FilesPerDir int
	FileSize    int
}

// AndrewRun is one configuration's result: per-phase and total virtual
// milliseconds.
type AndrewRun struct {
	Label   string
	PhaseMs [5]float64
	TotalMs float64
}

// RunAndrewComparison runs Andrew-N against the replicated NFS service in
// three configurations — unreplicated, the coupled BASE baseline, and the
// full privacy-firewall architecture — reproducing the comparison of
// Figure 6. thresholdBits sizes the firewall's threshold keys (512 is
// quick; 1024 matches the paper).
func RunAndrewComparison(cfg AndrewConfig, thresholdBits int) ([]AndrewRun, error) {
	if thresholdBits == 0 {
		thresholdBits = 512
	}
	// Default each zero field independently so a partially-filled config
	// still does real work instead of benchmarking nothing.
	def := bench.DefaultAndrew(1)
	bcfg := bench.AndrewConfig{N: cfg.N, Dirs: cfg.Dirs, FilesPerDir: cfg.FilesPerDir, FileSize: cfg.FileSize}
	if bcfg.N == 0 {
		bcfg.N = def.N
	}
	if bcfg.Dirs == 0 {
		bcfg.Dirs = def.Dirs
	}
	if bcfg.FilesPerDir == 0 {
		bcfg.FilesPerDir = def.FilesPerDir
	}
	if bcfg.FileSize == 0 {
		bcfg.FileSize = def.FileSize
	}
	var out []AndrewRun
	norep, err := bench.RunAndrew("No Replication", bench.NewNoRepInvoker(nfs.New()), bcfg)
	if err != nil {
		return nil, err
	}
	out = append(out, toAndrewRun(norep))
	for _, c := range []struct {
		label string
		mode  core.Mode
	}{
		{"BASE", core.ModeBASE},
		{"Firewall", core.ModeFirewall},
	} {
		res, err := bench.RunAndrewOnCluster(c.label, bench.AndrewClusterOptions(c.mode, thresholdBits), bcfg, bench.FaultNone)
		if err != nil {
			return nil, err
		}
		out = append(out, toAndrewRun(res))
	}
	return out, nil
}

func toAndrewRun(r bench.AndrewResult) AndrewRun {
	run := AndrewRun{Label: r.Label, TotalMs: float64(r.Total) / 1e6}
	for i, p := range r.Phases {
		run.PhaseMs[i] = float64(p) / 1e6
	}
	return run
}
