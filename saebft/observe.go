package saebft

import (
	"io"

	"repro/internal/obs"
)

// Observability surface. Every layer of a cluster or node — agreement,
// execution, durable storage, transport links, and the client read/write
// path — records into one process-wide metrics registry plus a bounded
// per-operation trace ring. The same data is reachable two ways:
//
//   - programmatically, via Cluster.Metrics / Node.Metrics /
//     Client.Metrics (and the matching Trace accessors), for tests and
//     embedders;
//   - over HTTP, via WithMetricsAddr / NodeMetricsAddr, which serve
//     Prometheus text on /metrics, the trace ring on /debug/trace, and the
//     standard pprof handlers under /debug/pprof/.
//
// On the simulated transport the trace timestamps are virtual time — the
// deterministic protocol clock — so two runs with the same seed produce
// identical span streams.

// Metric is one sample from a metrics registry: a counter or gauge value,
// or one expanded histogram sample (<name>_bucket with an "le" label,
// <name>_sum, <name>_count). docs/ARCHITECTURE.md catalogs the series.
type Metric struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// TraceSpan is one per-operation lifecycle event from the trace ring:
// request submission, batch cut, agreement phase transitions, execution,
// reply emission, certified-read service, view changes, and checkpoints.
type TraceSpan struct {
	// At is the event time in nanoseconds: virtual time on the simulated
	// transport, wall time (monotonic since start) over TCP.
	At int64
	// Node is the recording node's identity.
	Node int
	// Stage names the lifecycle point (e.g. "submit", "pre_prepare",
	// "prepared", "committed", "executed", "apply", "reply", "read_serve",
	// "view_change", "new_view", "checkpoint", "batch_cut").
	Stage string
	// Seq is the protocol sequence number, when the stage has one.
	Seq uint64
	// View is the agreement view, for agreement-side stages.
	View uint64
	// Note carries stage-specific detail ("reqs=3", "refused", ...).
	Note string
}

// lowerSamples converts registry samples to the public Metric type.
func lowerSamples(samples []obs.Sample) []Metric {
	out := make([]Metric, 0, len(samples))
	for _, s := range samples {
		m := Metric{Name: s.Name, Value: s.Value}
		if len(s.Labels) > 0 {
			m.Labels = make(map[string]string, len(s.Labels))
			for _, l := range s.Labels {
				m.Labels[l.Key] = l.Value
			}
		}
		out = append(out, m)
	}
	return out
}

// lowerSpans converts trace-ring spans to the public TraceSpan type.
func lowerSpans(spans []obs.Span) []TraceSpan {
	out := make([]TraceSpan, 0, len(spans))
	for _, s := range spans {
		out = append(out, TraceSpan{
			At: s.At, Node: s.Node, Stage: s.Stage,
			Seq: s.Seq, View: s.View, Note: s.Note,
		})
	}
	return out
}

// registerClientObs folds the handle's atomic counters into a registry as
// func-backed series, so /metrics and ClientStats read the same values.
func (h *Client) registerClientObs(reg *obs.Registry) {
	reg.GaugeFunc("saebft_client_pipeline_width",
		"batch dispatches the adaptive controller currently allows in flight",
		func() float64 { return float64(h.pipelineWidth()) })
	reg.GaugeFunc("saebft_client_in_flight",
		"invocations currently admitted by the handle",
		func() float64 { return float64(h.inFlight.Load()) })
	reg.CounterFunc("saebft_client_batches_total",
		"batched (multi-op or pass-through) requests completed", h.batches.Load)
	reg.CounterFunc("saebft_client_batched_ops_total",
		"operations completed through the batching path", h.batchedOps.Load)
	reg.CounterFunc("saebft_client_reads_total",
		"certified-read calls admitted", h.reads.Load)
	reg.CounterFunc("saebft_client_reads_certified_total",
		"reads answered entirely on the certified fast path", h.readsCertified.Load)
	reg.CounterFunc("saebft_client_read_retries_total",
		"certified-read re-probes at a raised floor", h.readRetries.Load)
	reg.CounterFunc("saebft_client_read_fallbacks_total",
		"reads that fell back to full agreement", h.readFallbacks.Load)
}

// Metrics snapshots the handle's metrics registry: for a cluster-owned
// handle the whole cluster's registry (same as Cluster.Metrics), for a
// dialed handle this process's client-side series — the pipeline, batching,
// and certified-read counters plus each endpoint's link series.
func (h *Client) Metrics() []Metric {
	if h.cluster != nil {
		return h.cluster.Metrics()
	}
	return lowerSamples(h.reg.Snapshot())
}

// Metrics snapshots every series the cluster's layers have recorded:
// agreement (saebft_pbft_*), execution (saebft_exec_*), durable storage
// (saebft_wal_*), transport links (saebft_link_*, TCP transport only), and
// the client path (saebft_client_*). Series carry a node="<id>" label where
// they are per-node. Works on any transport — the registry is plain shared
// memory.
func (c *Cluster) Metrics() []Metric {
	return lowerSamples(c.o.obsReg.Snapshot())
}

// WriteMetrics writes the cluster's registry in Prometheus text exposition
// format (version 0.0.4) — the same bytes WithMetricsAddr serves on
// /metrics.
func (c *Cluster) WriteMetrics(w io.Writer) error {
	return c.o.obsReg.WritePrometheus(w)
}

// Trace dumps the cluster's per-operation trace ring, oldest span first.
// The ring is bounded (the newest DefaultTraceCap spans are kept), so this
// is a tail, not a full history.
func (c *Cluster) Trace() []TraceSpan {
	return lowerSpans(c.o.obsTrace.Dump())
}

// OpsAddr returns the bound address of the cluster's ops HTTP endpoint
// (WithMetricsAddr), empty before Start or without one.
func (c *Cluster) OpsAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ops == nil {
		return ""
	}
	return c.ops.Addr()
}

// Metrics snapshots every series this node's layers have recorded —
// protocol (agreement or execution, by role), durable storage, and
// transport links. Empty before Start.
func (n *Node) Metrics() []Metric {
	return lowerSamples(n.obsReg.Snapshot())
}

// WriteMetrics writes the node's registry in Prometheus text exposition
// format (version 0.0.4) — the same bytes NodeMetricsAddr serves on
// /metrics.
func (n *Node) WriteMetrics(w io.Writer) error {
	return n.obsReg.WritePrometheus(w)
}

// Trace dumps the node's per-operation trace ring, oldest span first.
func (n *Node) Trace() []TraceSpan {
	return lowerSpans(n.obsTrace.Dump())
}

// OpsAddr returns the bound address of the node's ops HTTP endpoint
// (NodeMetricsAddr), empty before Start or without one.
func (n *Node) OpsAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ops == nil {
		return ""
	}
	return n.ops.Addr()
}
