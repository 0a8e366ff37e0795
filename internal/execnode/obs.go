package execnode

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/types"
)

// metrics holds the replica's registered instruments. Instruments are nil
// without a registry and no-op on nil, so instrumentation sites stay
// unconditional. The package only writes the observability plane (Inc,
// Add, Set, Observe, Record) — the simdeterminism analyzer rejects
// read-side calls, keeping metrics out of checkpoint digests and replies.
type metrics struct {
	batches        *obs.Counter
	requests       *obs.Counter
	retransmits    *obs.Counter
	checkpoints    *obs.Counter
	stateTransfers *obs.Counter
	readsServed    *obs.Counter
	readsRefused   *obs.Counter
	shareProofs    *obs.Counter

	applyLag  *obs.Histogram // first order share seen -> batch applied
	ckptBytes *obs.Histogram

	appliedSeq *obs.Gauge
	stableSeq  *obs.Gauge
	queueDepth *obs.Gauge // pending out-of-order certificates
	replyCache *obs.Gauge // exactly-once reply table entries
}

func newExecMetrics(reg *obs.Registry, id types.NodeID) metrics {
	node := obs.L("node", strconv.Itoa(int(id)))
	return metrics{
		batches: reg.Counter("saebft_exec_batches_total",
			"ordered batches applied to the state machine", node),
		requests: reg.Counter("saebft_exec_requests_total",
			"fresh requests executed (retransmissions excluded)", node),
		retransmits: reg.Counter("saebft_exec_retransmits_total",
			"retransmission acknowledgements answered from the reply table", node),
		checkpoints: reg.Counter("saebft_exec_checkpoints_total",
			"local execution checkpoints taken", node),
		stateTransfers: reg.Counter("saebft_exec_state_transfers_total",
			"checkpoint state transfers requested", node),
		readsServed: reg.Counter("saebft_exec_reads_served_total",
			"certified-read probes answered from applied state", node),
		readsRefused: reg.Counter("saebft_exec_reads_refused_total",
			"certified-read probes answered with a signed refusal", node),
		shareProofs: reg.Counter("saebft_exec_share_proofs_total",
			"threshold share proofs computed because a combiner asked (zero while no executor lies)", node),
		applyLag: reg.Histogram("saebft_exec_apply_seconds",
			"latency from first agreement-certificate share seen to batch applied, protocol clock",
			obs.LatencyBuckets, node),
		ckptBytes: reg.Histogram("saebft_exec_checkpoint_bytes",
			"serialized checkpoint payload size", obs.ByteBuckets, node),
		appliedSeq: reg.Gauge("saebft_exec_applied_seq",
			"highest executed sequence number", node),
		stableSeq: reg.Gauge("saebft_exec_stable_seq",
			"latest stable checkpoint sequence number", node),
		queueDepth: reg.Gauge("saebft_exec_queue_depth",
			"ordered-but-not-executed batches buffered (pending list)", node),
		replyCache: reg.Gauge("saebft_exec_reply_cache_size",
			"entries in the exactly-once reply table", node),
	}
}

// observeSince records now-from on h, skipping zero start stamps.
func observeSince(h *obs.Histogram, from, now types.Time) {
	if from != 0 && now >= from {
		h.Observe(obs.Seconds(int64(now - from)))
	}
}

// span records one lifecycle span on the trace ring (no-op without a
// tracer), stamped with the protocol clock.
func (r *Replica) span(now types.Time, stage string, seq types.SeqNum, note string) {
	r.trace.Record(obs.Span{
		At:    int64(now),
		Node:  int(r.cfg.ID),
		Stage: stage,
		Seq:   uint64(seq),
		Note:  note,
	})
}
