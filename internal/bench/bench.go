// Package bench regenerates the paper's evaluation (§5): the latency
// microbenchmark of Figure 3, the relative-cost model of Figure 4 (in
// subpackage costmodel), the response-time/throughput curves of Figure 5,
// and the Andrew-N file-system benchmark of Figures 6 and 7, including the
// faulty-replica variants.
//
// Measurements run on the simulated network with compute-time accounting
// (transport.SimNetConfig.MeasureCompute): real cryptographic work — Ed25519
// signatures, HMAC vectors, Shoup threshold RSA — is executed and its
// wall-clock cost advanced on each node's virtual busy horizon, while link
// latencies come from the configured fault-free LAN model. Absolute numbers
// therefore reflect this machine's crypto speeds rather than the paper's
// 2003 testbed; the comparisons across architectures are what reproduce.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/apps/nullsrv"
	"repro/internal/core"
	"repro/internal/replycert"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
)

// LatencyConfig describes one Figure 3 bar: an architecture configuration
// and a request/reply size pair.
type LatencyConfig struct {
	Label    string
	Opts     core.Options
	Colocate bool // run executors on the agreement machines ("Same")
	ReqSize  int
	RepSize  int
	Requests int
	Warmup   int
}

// LatencyResult summarizes one run.
type LatencyResult struct {
	Label    string
	Requests int
	MeanMs   float64
	MedianMs float64
	P99Ms    float64
	MinMs    float64
	MaxMs    float64
}

// Fig3Configs returns the paper's five latency configurations
// (algorithm/machine-configuration/authentication, §5.2) for one size pair.
// thresholdBits sizes the RSA modulus used by the threshold configurations.
func Fig3Configs(reqSize, repSize, requests, thresholdBits int) []LatencyConfig {
	mk := func(label string, colocate bool, mutate func(*core.Options)) LatencyConfig {
		o := core.Options{
			BatchSize:          1, // latency microbenchmark: no batching
			CheckpointInterval: 128,
			WindowSize:         512,
			Pipeline:           64,
			ThresholdBits:      thresholdBits,
			RequestTimeout:     types.Millisecond(2000),
			ClientRetransmit:   types.Millisecond(1000),
		}
		mutate(&o)
		return LatencyConfig{
			Label: label, Opts: o, Colocate: colocate,
			ReqSize: reqSize, RepSize: repSize, Requests: requests, Warmup: requests / 10,
		}
	}
	return []LatencyConfig{
		mk("BASE/Same/MAC", false, func(o *core.Options) {
			o.Mode = core.ModeBASE
			o.MACRequests = true
		}),
		mk("Separate/Same/MAC", true, func(o *core.Options) {
			o.Mode = core.ModeSeparate
			o.MACRequests = true
			o.MACOrders = true
			o.ReplyMode = replycert.ModeQuorum
		}),
		mk("Separate/Different/MAC", false, func(o *core.Options) {
			o.Mode = core.ModeSeparate
			o.MACRequests = true
			o.MACOrders = true
			o.ReplyMode = replycert.ModeQuorum
		}),
		mk("Separate/Different/Thresh", false, func(o *core.Options) {
			o.Mode = core.ModeSeparate
			o.MACRequests = true
			o.MACOrders = true
			o.ReplyMode = replycert.ModeThreshold
		}),
		mk("Priv/Different/Thresh", false, func(o *core.Options) {
			o.Mode = core.ModeFirewall
		}),
	}
}

// RunLatency executes one latency configuration: a single client issues
// sequential null-server requests and virtual-time round trips are recorded.
func RunLatency(cfg LatencyConfig) (LatencyResult, error) {
	opts := cfg.Opts
	opts.App = func() sm.StateMachine { return nullsrv.New(cfg.RepSize) }
	opts.Net.MeasureCompute = true
	c, err := core.BuildSim(opts)
	if err != nil {
		return LatencyResult{}, err
	}
	if cfg.Colocate {
		// "Same" configuration: executor i shares agreement machine i.
		for i, e := range c.Top.Execution {
			c.Net.Colocate(e, c.Top.Agreement[i%len(c.Top.Agreement)])
		}
	}
	op := nullsrv.MakeRequest(cfg.ReqSize)
	var samples []float64
	total := cfg.Requests + cfg.Warmup
	for i := 0; i < total; i++ {
		start := c.Net.Now()
		if _, err := c.Invoke(0, op, types.Time(60e9)); err != nil {
			return LatencyResult{}, fmt.Errorf("%s request %d: %w", cfg.Label, i, err)
		}
		if i >= cfg.Warmup {
			samples = append(samples, float64(c.Net.Now()-start)/1e6)
		}
	}
	return summarize(cfg.Label, samples), nil
}

func summarize(label string, samples []float64) LatencyResult {
	r := LatencyResult{Label: label, Requests: len(samples)}
	if len(samples) == 0 {
		return r
	}
	sort.Float64s(samples)
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	r.MeanMs = sum / float64(len(samples))
	r.MedianMs = samples[len(samples)/2]
	r.P99Ms = samples[(len(samples)*99)/100]
	r.MinMs = samples[0]
	r.MaxMs = samples[len(samples)-1]
	return r
}

// --- Figure 5: response time vs offered load and bundle size --------------------

// ThroughputConfig describes one Figure 5 curve point.
type ThroughputConfig struct {
	Bundle        int     // agreement batch = reply bundle size
	RatePerSec    float64 // offered load, requests/second
	Clients       int
	ReqSize       int
	RepSize       int
	Requests      int // total requests to offer
	ThresholdBits int
	Mode          core.Mode
}

// ThroughputResult summarizes one load point.
type ThroughputResult struct {
	Bundle         int
	OfferedPerSec  float64
	Completed      int
	MeanRespMs     float64
	P99RespMs      float64
	AchievedPerSec float64
}

// RunThroughput offers an open-loop load at the configured rate and measures
// response times (queueing included, as in the paper's load generator).
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	if cfg.Clients == 0 {
		cfg.Clients = 24
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.ModeFirewall
	}
	opts := core.Options{
		Mode:      cfg.Mode,
		Clients:   cfg.Clients,
		BatchSize: cfg.Bundle,
		// Static bundles (as in the prototype, §5.3): a partial bundle
		// waits out this delay, which is what makes large bundles costly
		// at low load in Figure 5.
		BatchWait:          types.Millisecond(20),
		CheckpointInterval: 256,
		WindowSize:         1024,
		Pipeline:           256,
		ThresholdBits:      cfg.ThresholdBits,
		RequestTimeout:     types.Millisecond(5000),
		ClientRetransmit:   types.Millisecond(2500),
		App:                func() sm.StateMachine { return nullsrv.New(cfg.RepSize) },
		Net:                transport.SimNetConfig{MeasureCompute: true},
	}
	c, err := core.BuildSim(opts)
	if err != nil {
		return ThroughputResult{}, err
	}
	op := nullsrv.MakeRequest(cfg.ReqSize)
	interval := types.Time(1e9 / cfg.RatePerSec)

	var (
		samples   []float64
		backlog   []types.Time // intended times not yet submitted
		intended  = make([]types.Time, cfg.Clients)
		freeCls   []int
		offered   int
		completed int
	)
	for i := 0; i < cfg.Clients; i++ {
		freeCls = append(freeCls, i)
		// A completion frees its client within the Step that certified it.
		c.Clients[i].SetOnResult(func([]byte, types.SeqNum) {
			samples = append(samples, float64(c.Net.Now()-intended[i])/1e6)
			freeCls = append(freeCls, i)
			completed++
		})
	}
	nextOffer := c.Net.Now() + interval
	start := c.Net.Now()

	submit := func(due types.Time) bool {
		if len(freeCls) == 0 {
			return false
		}
		cl := freeCls[0]
		freeCls = freeCls[1:]
		if err := c.Clients[cl].Submit(op, c.Net.Now()); err != nil {
			return false
		}
		intended[cl] = due
		return true
	}

	deadline := start + types.Time(600e9)
	for completed < cfg.Requests && c.Net.Now() < deadline {
		// Offer new work on schedule.
		for offered < cfg.Requests && nextOffer <= c.Net.Now() {
			backlog = append(backlog, nextOffer)
			nextOffer += interval
			offered++
		}
		for len(backlog) > 0 && submit(backlog[0]) {
			backlog = backlog[1:]
		}
		if !c.Net.Step() {
			break
		}
	}
	res := ThroughputResult{Bundle: cfg.Bundle, OfferedPerSec: cfg.RatePerSec, Completed: completed}
	if len(samples) > 0 {
		sort.Float64s(samples)
		sum := 0.0
		for _, s := range samples {
			sum += s
		}
		res.MeanRespMs = sum / float64(len(samples))
		res.P99RespMs = samples[(len(samples)*99)/100]
	}
	elapsed := float64(c.Net.Now()-start) / 1e9
	if elapsed > 0 {
		res.AchievedPerSec = float64(completed) / elapsed
	}
	return res, nil
}
