package pbft

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/types"
)

// metrics holds the replica's registered instruments. Every instrument is
// nil when the replica was built without a registry and every method
// no-ops on nil, so the instrumentation sites below stay unconditional.
// This package only ever writes to the observability plane — Inc, Add,
// Set, Observe, Record — never reads it; the simdeterminism analyzer
// rejects any read-side call, keeping metrics out of digests, encoders,
// and WAL records.
//
// Latencies are measured on the protocol clock (types.Time): virtual time
// under the simulator — so instrumented runs stay deterministic — and
// monotonic time under TCP.
type metrics struct {
	batches       *obs.Counter
	requests      *obs.Counter
	viewChanges   *obs.Counter
	checkpoints   *obs.Counter
	equivocations *obs.Counter
	fsyncsSaved   *obs.Counter

	batchCuts [numCuts]*obs.Counter // by reason (see cutReason); cutNone stays nil

	batchSize  *obs.Histogram
	batchWait  *obs.Histogram // batch timer armed (first request queued) -> proposal
	prepareLat *obs.Histogram // pre-prepare accepted -> prepared
	commitLat  *obs.Histogram // prepared -> committed
	executeLat *obs.Histogram // committed -> executed
	vcSeconds  *obs.Histogram // view abandoned -> new view installed
	ckptSecs   *obs.Histogram // checkpoint sync requested -> digest ready

	view       *obs.Gauge
	lastExec   *obs.Gauge
	lastStable *obs.Gauge
	queueDepth *obs.Gauge
}

func newPBFTMetrics(reg *obs.Registry, id types.NodeID) metrics {
	node := obs.L("node", strconv.Itoa(int(id)))
	phase := func(p string) *obs.Histogram {
		return reg.Histogram("saebft_pbft_phase_seconds",
			"agreement phase latency on the protocol clock, by phase",
			obs.LatencyBuckets, node, obs.L("phase", p))
	}
	var cuts [numCuts]*obs.Counter
	for c := cutSize; c < numCuts; c++ {
		cuts[c] = reg.Counter("saebft_pbft_batch_cuts_total",
			"batches the primary proposed, by why the batch closed", node, obs.L("reason", c.String()))
	}
	return metrics{
		batchCuts: cuts,
		batchWait: reg.Histogram("saebft_pbft_batch_wait_seconds",
			"time a proposed batch was held open, first queued request to proposal", obs.LatencyBuckets, node),
		batches: reg.Counter("saebft_pbft_batches_total",
			"batches executed in total order", node),
		requests: reg.Counter("saebft_pbft_requests_total",
			"client requests executed inside ordered batches", node),
		viewChanges: reg.Counter("saebft_pbft_view_changes_total",
			"view-change campaigns started", node),
		checkpoints: reg.Counter("saebft_pbft_checkpoints_total",
			"local checkpoints completed", node),
		equivocations: reg.Counter("saebft_pbft_equivocations_total",
			"primary equivocation evidence observed (conflicting pre-prepares)", node),
		fsyncsSaved: reg.Counter("saebft_pbft_vote_fsyncs_saved_total",
			"vote fsyncs absorbed by a delivery burst's group commit", node),
		batchSize: reg.Histogram("saebft_pbft_batch_size",
			"requests per proposed batch", obs.CountBuckets, node),
		prepareLat: phase("prepare"),
		commitLat:  phase("commit"),
		executeLat: phase("execute"),
		vcSeconds: reg.Histogram("saebft_pbft_view_change_seconds",
			"view-change duration, campaign start to new-view install", obs.LatencyBuckets, node),
		ckptSecs: reg.Histogram("saebft_pbft_checkpoint_seconds",
			"checkpoint duration, sync start to digest completion", obs.LatencyBuckets, node),
		view: reg.Gauge("saebft_pbft_view",
			"current view number", node),
		lastExec: reg.Gauge("saebft_pbft_last_executed",
			"highest executed sequence number", node),
		lastStable: reg.Gauge("saebft_pbft_last_stable",
			"latest stable checkpoint sequence number", node),
		queueDepth: reg.Gauge("saebft_pbft_queue_depth",
			"requests queued at the primary awaiting proposal", node),
	}
}

// observeSince records now-from on h, skipping instances whose start stamp
// was lost (view migration recreates them with zero timestamps).
func observeSince(h *obs.Histogram, from, now types.Time) {
	if from != 0 && now >= from {
		h.Observe(obs.Seconds(int64(now - from)))
	}
}

// span records one lifecycle span on the trace ring (no-op without a
// tracer). Timestamps are the protocol clock's, so simulated traces are
// deterministic.
func (r *Replica) span(now types.Time, stage string, seq types.SeqNum, note string) {
	r.trace.Record(obs.Span{
		At:    int64(now),
		Node:  int(r.cfg.ID),
		Stage: stage,
		Seq:   uint64(seq),
		View:  uint64(r.view),
		Note:  note,
	})
}
