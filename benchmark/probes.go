package main

import (
	"fmt"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/types"
	"repro/saebft"
)

// Fault probe: write-tcp's deployment on the traced harness (timing off).
// Requests stay due every faultInterval of virtual time whatever happens;
// the view-0 primary is crashed at faultCrashAt, so requests due while no
// primary exists are submitted (as clients free up) and wait out the view
// change like a real user's would.
const (
	faultOps      = 2000
	faultInterval = time.Millisecond
	faultCrashAt  = 500 * time.Millisecond
)

// faultProbe reports how long the service was out after the primary crashed
// and how many view changes it took, then reads back every acknowledged put:
// a lost one is a failure.
func faultProbe(seed int64, ops int, crashAfter time.Duration) (*passResult, []metric, error) {
	w, err := findWorkload("write-tcp")
	if err != nil {
		return nil, nil, err
	}
	h, err := newHarness(w, seed, false)
	if err != nil {
		return nil, nil, fmt.Errorf("fault probe: %w", err)
	}
	defer h.close()

	m := newModel(h.s)
	d := newDriver(h, m, h.streamOps(ops))
	d.schedule = func(i int) types.Time { return types.Time(i) * types.Time(faultInterval) }
	crashAt := types.Time(crashAfter)
	crashed := false
	failover := types.Time(-1)
	d.onStep = func(now types.Time) {
		if !crashed && now >= crashAt {
			crashed = true
			h.c.CrashAgreement(0)
		}
	}
	d.onDone = func(sl *slot, now types.Time) {
		if crashed && failover < 0 && sl.due > crashAt {
			failover = now - crashAt
		}
	}
	d.run()
	res := d.res
	if failover < 0 {
		res.fail("fault probe: no request due after the crash was ever certified")
	}

	var views uint64
	for id, e := range h.c.Engines {
		if id != h.c.Top.Agreement[0] && e.Metrics.ViewChanges > views {
			views = e.Metrics.ViewChanges
		}
	}

	// Read back, through agreement in the new view, every key a put was
	// acknowledged for.
	var gets []genOp
	for key, v := range m.version {
		if v > 0 {
			gets = append(gets, genOp{Index: len(gets), Kind: opGet, Key: key, Body: kv.GetOp(keyName(key))})
		}
	}
	rb := newDriver(h, m, gets)
	rb.run()
	res.Attempted += rb.res.Attempted
	res.Failed += rb.res.Failed
	if res.FirstErr == "" && rb.res.FirstErr != "" {
		res.FirstErr = "read-back after failover: " + rb.res.FirstErr
	}
	return &res, faultMetrics(float64(failover)/1e6, views), nil
}

// faultMetrics names the fault probe's results.
func faultMetrics(failoverMs float64, views uint64) []metric {
	return []metric{
		{Name: "pbft.failover_virtual_ms", Unit: "ms", Value: failoverMs, N: 1},
		{Name: "pbft.view_changes", Unit: "count", Value: float64(views), N: 1},
	}
}

// adaptiveProbe runs batched-durable-tls's deployment twice, with the
// batching handle's dispatch-width controller at its default (adaptive) and
// pinned off as every measured run has it, and reports what the default
// costs. Reported, never gated: the default is bistable.
func adaptiveProbe(seed int64, seconds float64) (attempted, failed int, ms []metric, err error) {
	w, err := findWorkload("batched-durable-tls")
	if err != nil {
		return 0, 0, nil, err
	}
	var rates [2]float64
	var width int
	for i, adaptive := range []bool{true, false} {
		r, err := runE2E(w, seed, seconds, 1, saebft.WithAdaptivePipeline(adaptive))
		if err != nil {
			return 0, 0, nil, fmt.Errorf("adaptive probe: %w", err)
		}
		reportFailure(r)
		attempted += r.Attempted
		failed += r.Failed
		rates[i] = r.throughput()
		if adaptive {
			width = r.Client.PipelineWidth
		}
	}
	return attempted, failed, adaptiveMetrics(ratio(rates[0], rates[1]), width), nil
}

// adaptiveMetrics names the adaptive probe's results.
func adaptiveMetrics(throughputRatio float64, width int) []metric {
	return []metric{
		{Name: "client.adaptive_throughput_ratio", Unit: "ratio", Value: throughputRatio, N: 2},
		{Name: "client.adaptive_pipeline_width", Unit: "count", Value: float64(width), N: 1},
	}
}

// notRun lists a probe's metrics for a workload the probe does not belong to,
// with no samples: every workload names every metric, and the report prints
// these as not measured. The contract line has no such mark and must carry
// every per-layer metric, so there they read 0.
func notRun(ms []metric) []metric {
	for i := range ms {
		ms[i].Value, ms[i].N = 0, 0
	}
	return ms
}
