package execnode

import (
	"testing"

	"repro/internal/auth"
	"repro/internal/types"
	"repro/internal/wire"
)

// reqFrom builds a request from an arbitrary client with its own timestamp
// stream (the shared world helper drives only client 1000).
func reqFrom(client types.NodeID, ts types.Timestamp, op string) wire.Request {
	return wire.Request{Client: client, Timestamp: ts, Op: []byte(op)}
}

// vote sends replica from's checkpoint attestation over the given digest.
func (w *world) vote(from types.NodeID, n types.SeqNum, digest types.Digest) {
	w.t.Helper()
	att, err := w.schemes[from].Attest(auth.KindExecCheckpoint, wire.CheckpointDigest(n, digest), top.Execution)
	if err != nil {
		w.t.Fatal(err)
	}
	w.r.Receive(from, &wire.ExecCheckpoint{Seq: n, State: digest, Executor: from, Att: att}, 0)
}

// TestMakeStablePrunesBelowWatermark is the memory-bound regression test:
// once a checkpoint is stable, everything strictly below the watermark —
// checkpoint vote maps, order certificates, pending accumulators, and the
// per-client last-reply-share cache — must be released.
func TestMakeStablePrunesBelowWatermark(t *testing.T) {
	w := newWorld(t, nil) // CheckpointInterval 4
	// Three clients execute in early batches; client 1000 stays active.
	w.commit(1, []wire.Request{reqFrom(1001, 1, "inc"), reqFrom(1002, 1, "inc")})
	w.commit(2, []wire.Request{w.req("inc")})
	w.commit(3, []wire.Request{w.req("inc")})
	w.commit(4, []wire.Request{w.req("inc")})
	if w.r.MaxN() != 4 {
		t.Fatalf("maxN=%d, want 4", w.r.MaxN())
	}
	if len(w.r.lastOut) != 3 {
		t.Fatalf("lastOut has %d entries before stability, want 3", len(w.r.lastOut))
	}
	if len(w.r.ckpt.Held()) == 0 {
		t.Fatal("no checkpoint votes recorded for seq 4")
	}
	// Two peers agree with the local digest: the checkpoint becomes stable.
	digest := types.DigestBytes(w.r.ckpt.Local(4))
	w.vote(101, 4, digest)
	w.vote(102, 4, digest)
	if w.r.StableSeq() != 4 {
		t.Fatalf("stableSeq=%d, want 4", w.r.StableSeq())
	}
	// Bundles from batches 1–3 (clients 1001, 1002) are strictly below the
	// watermark and must be gone; client 1000's batch-4 bundle survives.
	if len(w.r.lastOut) != 1 {
		t.Fatalf("lastOut has %d entries after stability, want 1", len(w.r.lastOut))
	}
	if _, ok := w.r.lastOut[1000]; !ok {
		t.Fatal("client 1000's at-watermark bundle was pruned")
	}
	for _, seq := range w.r.ckpt.Held() {
		if seq <= 4 {
			t.Fatalf("checkpoint votes for seq %d survived stability", seq)
		}
	}
	for seq := range w.r.proofs {
		if seq <= 4 {
			t.Fatalf("order proof for seq %d survived stability", seq)
		}
	}
	// The reply table is untouched by stability (it must stay identical
	// across replicas regardless of when each one observes stability).
	if len(w.r.replies) != 3 {
		t.Fatalf("reply table has %d entries, want 3", len(w.r.replies))
	}
}
