package main

import (
	"fmt"
	"math"
	"os"
	"strings"
)

// metric is one reported number. N is how many samples it summarises (0:
// the workload does not exercise what it measures); Lo and Hi are its
// per-window (or per-set-up) extremes where it has them.
type metric struct {
	Name   string
	Unit   string
	Value  float64
	N      int
	Lo, Hi float64
}

// bound is how much worse an end-to-end metric may get, as a share of the
// earlier value, before -repeat (and BENCHMARK.json) call it a regression.
type bound struct {
	name   string
	higher bool    // higher is better
	share  float64 // relative
	abs    float64 // absolute slack, for metrics near zero
}

// bounds lists the end-to-end metrics in reporting order. failed_share has
// no slack at all: any failure fails the command.
var bounds = []bound{
	{name: "throughput_ops_s", higher: true, share: 0.15},
	{name: "latency_p50_ms", share: 0.15},
	{name: "latency_p95_ms", share: 0.25},
	{name: "cpu_ms_per_op", share: 0.25},
	{name: "failed_share"},
	{name: "setup_s", share: 0.25, abs: 0.25},
}

// e2eMetrics derives the six end-to-end metrics from one run: throughput is
// the median window, latencies pool every window, CPU is total over total,
// set-up is the median set-up; each carries its per-window extremes.
func e2eMetrics(r *e2eResult) []metric {
	n := len(r.Latencies)
	withRange := func(name, unit string, value float64, n int, perWindow []float64) metric {
		lo, hi := minMax(perWindow)
		return metric{Name: name, Unit: unit, Value: value, N: n, Lo: lo, Hi: hi}
	}
	cpu := 0.0
	for _, c := range r.WindowCPU {
		cpu += c
	}
	return []metric{
		withRange("throughput_ops_s", "ops/s", r.throughput(), len(r.WindowRates), r.WindowRates),
		withRange("latency_p50_ms", "ms", percentile(r.Latencies, 0.50), n, r.windowPercentiles(0.50)),
		withRange("latency_p95_ms", "ms", percentile(r.Latencies, 0.95), n, r.windowPercentiles(0.95)),
		withRange("cpu_ms_per_op", "ms", ratio(cpu, float64(n)), n, r.windowCPUPerOp()),
		{Name: "failed_share", Unit: "ratio", Value: r.failedShare(), N: r.Attempted},
		withRange("setup_s", "s", median(r.Setups), len(r.Setups), r.Setups),
	}
}

// e2eLayerMetrics derives the per-layer metrics that are read from public
// counters and the generator's own records after an end-to-end run.
func e2eLayerMetrics(r *e2eResult) []metric {
	ops := float64(len(r.Latencies))
	reads := float64(r.Client.Reads)
	n := len(r.Latencies)
	rssN := 0 // a run that did not raise the high-water mark has no reading
	if r.PeakRSSMB > 0 {
		rssN = 1
	}
	return []metric{
		{Name: "client.ops_per_request", Unit: "count", Value: ratio(float64(r.Client.BatchedOps), float64(r.Client.Batches)), N: int(r.Client.Batches)},
		{Name: "client.pipeline_width", Unit: "count", Value: float64(r.Client.PipelineWidth), N: 1},
		{Name: "client.retransmits_per_kop", Unit: "count", Value: 1000 * ratio(float64(r.Stats.Retransmits), ops), N: n},
		{Name: "client.read_certified_share", Unit: "ratio", Value: ratio(float64(r.Client.ReadsCertified), reads), N: int(reads)},
		{Name: "client.read_retry_share", Unit: "ratio", Value: ratio(float64(r.Client.ReadRetries), reads), N: int(reads)},
		{Name: "client.read_fallback_share", Unit: "ratio", Value: ratio(float64(r.Client.ReadFallbacks), reads), N: int(reads)},
		{Name: "client.read_p50_ms", Unit: "ms", Value: percentile(r.ReadLat, 0.5), N: len(r.ReadLat)},
		{Name: "client.write_p50_ms", Unit: "ms", Value: percentile(r.WriteLat, 0.5), N: len(r.WriteLat)},
		{Name: "client.latency_p99_ms", Unit: "ms", Value: percentile(r.Latencies, 0.99), N: n},
		{Name: "client.latency_p999_ms", Unit: "ms", Value: percentile(r.Latencies, 0.999), N: n},
		{Name: "transport.frames_per_op", Unit: "count", Value: ratio(float64(r.Stats.Link.FramesSent), ops), N: n},
		{Name: "transport.tcp_bytes_per_op", Unit: "bytes", Value: ratio(float64(r.Stats.Link.BytesSent), ops), N: n},
		{Name: "transport.queue_drops", Unit: "count", Value: float64(r.Stats.Link.FramesDropped), N: n},
		{Name: "loadgen.late_p99_ms", Unit: "ms", Value: percentile(r.Lateness, 0.99), N: len(r.Lateness)},
		{Name: "loadgen.max_backlog", Unit: "count", Value: float64(r.MaxBacklog), N: 1},
		{Name: "proc.alloc_kb_per_op", Unit: "KiB", Value: ratio(float64(r.AllocBytes)/1024, ops), N: n},
		{Name: "proc.peak_rss_mb", Unit: "MiB", Value: r.PeakRSSMB, N: rssN},
		{Name: "throughput_window_spread_pct", Unit: "%", Value: r.windowSpreadPct(), N: len(r.WindowRates)},
	}
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("%s\n", title)
	for _, m := range ms {
		if m.N == 0 {
			fmt.Printf("  %-38s %14s %-6s n=0 (not measured on this workload)\n", m.Name, "-", m.Unit)
			continue
		}
		extra := ""
		if m.Lo != 0 || m.Hi != 0 {
			extra = fmt.Sprintf("  [min %.4g, max %.4g]", m.Lo, m.Hi)
		}
		fmt.Printf("  %-38s %14.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, extra)
	}
}

func describe(w *workload, seconds float64) string {
	load := fmt.Sprintf("closed loop, %d outstanding", w.Outstanding)
	if w.Rate > 0 {
		load = fmt.Sprintf("open loop at %.0f ops/s, %.0f%% certified reads, limit %v", w.Rate, 100*w.ReadShare, openLoopLimit)
	}
	delay := "loopback TCP, 0 injected delay: latency is processor and scheduler time only"
	if w.Transport == "sim" {
		delay = "simulated links of 50-200us virtual delay, measured on the wall clock"
	}
	return fmt.Sprintf("%s: %s; %d x %d B keys; %s; %.3gs warm-up + %d x %.3gs windows",
		w.Name, load, w.Keys, w.ValueSize, delay, seconds/10, numWindows, seconds/numWindows)
}

func reportFailure(r *e2eResult) {
	if r.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed; first: %s\n", r.Workload, r.Failed, r.Attempted, r.FirstErr)
	}
}

// runContract is the driver contract: one workload, one JSON line.
func runContract(w *workload, o options) (bool, error) {
	if o.trace == 0 {
		r, err := runE2E(w, o.seed, o.seconds, e2eSetups)
		if err != nil {
			return false, err
		}
		reportFailure(r)
		var out []metric
		for _, m := range e2eMetrics(r) {
			if m.Name != "failed_share" { // carried by the line's attempted and failed
				out = append(out, m)
			}
		}
		return r.Failed == 0, printContract(r.Attempted, r.Failed, out)
	}
	r, err := runE2E(w, o.seed, o.seconds, 1)
	if err != nil {
		return false, err
	}
	attempted, failed, layers, err := layerMetrics(w, o, r)
	if err != nil {
		return false, err
	}
	micro, err := microPass()
	if err != nil {
		return false, err
	}
	return failed == 0, printContract(attempted, failed, append(layers, micro...))
}

// layerMetrics produces the per-layer metrics of one workload that depend
// on it: those read from the public counters of the end-to-end run r, the
// traced pass, and the probe that belongs to the workload. The counts
// include r's.
func layerMetrics(w *workload, o options, r *e2eResult) (attempted, failed int, layers []metric, err error) {
	count := func(a, f int, first string) {
		attempted += a
		failed += f
		if f > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed outside the end-to-end run; first: %s\n", w.Name, f, a, first)
		}
	}
	reportFailure(r)
	attempted, failed = r.Attempted, r.Failed
	layers = e2eLayerMetrics(r)

	traceOut := o.traceOut
	if traceOut != "" && o.workload == "" {
		traceOut += "." + w.Name
	}
	tr, traced, err := tracedPass(w, o.seed, traceOut)
	if err != nil {
		return 0, 0, nil, err
	}
	count(tr.Attempted, tr.Failed, tr.FirstErr)
	layers = append(layers, traced...)

	fault := notRun(faultMetrics(0, 0))
	if w.Name == "write-tcp" {
		var fr *passResult
		if fr, fault, err = faultProbe(o.seed, faultOps, faultCrashAt); err != nil {
			return 0, 0, nil, err
		}
		count(fr.Attempted, fr.Failed, fr.FirstErr)
	}
	layers = append(layers, fault...)

	adaptive := notRun(adaptiveMetrics(0, 0))
	if w.Name == "batched-durable-tls" {
		var a, f int
		if a, f, adaptive, err = adaptiveProbe(o.seed, o.seconds/3); err != nil {
			return 0, 0, nil, err
		}
		count(a, f, "reported above")
	}
	return attempted, failed, append(layers, adaptive...), nil
}

// runFull is the default mode: every selected workload end to end, then
// its per-layer metrics, then the micro pass, all by name.
func runFull(selected []workload, o options) (bool, error) {
	ok := true
	for i := range selected {
		w := &selected[i]
		fmt.Println(describe(w, o.seconds))
		r, err := runE2E(w, o.seed, o.seconds, e2eSetups)
		if err != nil {
			return false, err
		}
		printMetrics(fmt.Sprintf("end to end (seed %d, wall clock, tracing off)", o.seed), e2eMetrics(r))
		_, failed, layers, err := layerMetrics(w, o, r)
		if err != nil {
			return false, err
		}
		ok = ok && failed == 0
		printMetrics(fmt.Sprintf("per layer (public counters of the run above; traced pass of %d operations; probes)", w.tracedOps()), layers)
		fmt.Println()
	}
	micro, err := microPass()
	if err != nil {
		return false, err
	}
	printMetrics("per layer, micro pass (median per call)", micro)
	return ok, nil
}

// worseBy reports by how much b is worse than a as a share of a (negative
// when b is better), given the metric's direction.
func worseBy(bd bound, a, b float64) float64 {
	if bd.higher {
		return ratio(a-b, a)
	}
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}

// runRepeat runs the end-to-end set o.repeat times and compares every run
// with the first, metric by metric, against the bounds.
func runRepeat(selected []workload, o options) (bool, error) {
	ok := true
	for i := range selected {
		w := &selected[i]
		fmt.Println(describe(w, o.seconds))
		var runs [][]metric
		for k := 0; k < o.repeat; k++ {
			r, err := runE2E(w, o.seed, o.seconds, e2eSetups)
			if err != nil {
				return false, err
			}
			reportFailure(r)
			ok = ok && r.Failed == 0
			runs = append(runs, e2eMetrics(r))
		}
		for j, bd := range bounds {
			var vals []string
			worst := 0.0
			for k := range runs {
				vals = append(vals, fmt.Sprintf("%.6g", runs[k][j].Value))
				if k == 0 {
					continue
				}
				// Either run may be the slower one; a regression check
				// compares later with earlier, a repeatability check both ways.
				d := math.Max(worseBy(bd, runs[0][j].Value, runs[k][j].Value), worseBy(bd, runs[k][j].Value, runs[0][j].Value))
				if math.Abs(runs[k][j].Value-runs[0][j].Value) <= bd.abs {
					d = 0
				}
				worst = math.Max(worst, d)
			}
			verdict := "ok"
			if worst > bd.share {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-20s %-6s %-36s diff %6.2f%%  bound %5.1f%%  %s\n",
				bd.name, runs[0][j].Unit, strings.Join(vals, " vs "), 100*worst, 100*bd.share, verdict)
		}
		fmt.Println()
	}
	return ok, nil
}
