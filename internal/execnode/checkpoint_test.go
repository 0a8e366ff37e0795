package execnode

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestCheckpointVoteFloodIsBounded: a Byzantine executor's validly signed
// checkpoint votes for 5 000 distinct future sequence numbers leave at most
// VotesPerMember votes per member in the table, and a quorum still makes
// the next checkpoint stable.
func TestCheckpointVoteFloodIsBounded(t *testing.T) {
	w := newWorld(t, nil) // CheckpointInterval 4
	junk := types.DigestBytes([]byte("junk"))
	for i := types.SeqNum(1); i <= 5000; i++ {
		w.vote(102, 1000+i, junk)
	}
	limit := checkpoint.VotesPerMember * len(top.Execution)
	if held := len(w.r.ckpt.Held()); held > limit {
		t.Fatalf("vote table holds %d votes after the flood, bound is %d", held, limit)
	}
	for n := types.SeqNum(1); n <= 4; n++ {
		w.commit(n, []wire.Request{w.req("inc")})
	}
	w.vote(101, 4, types.DigestBytes(w.r.ckpt.Local(4)))
	if w.r.StableSeq() != 4 {
		t.Fatalf("stableSeq=%d after the flood, want 4", w.r.StableSeq())
	}
}

// TestCheckpointPayloadServedToMembersOnly: the payload (app state plus
// every client's cached reply) goes only to an execution replica asking for
// itself.
func TestCheckpointPayloadServedToMembersOnly(t *testing.T) {
	w := newWorld(t, nil)
	for n := types.SeqNum(1); n <= 4; n++ {
		w.commit(n, []wire.Request{w.req("inc")})
	}
	for _, ask := range []struct{ from, executor types.NodeID }{
		{1000, 1000}, // a client
		{0, 0},       // an agreement replica
		{101, 102},   // a member on another's behalf
	} {
		w.r.Receive(ask.from, &wire.CheckpointFetch{Seq: 4, Executor: ask.executor}, 0)
	}
	if got := w.cap.byType(wire.TCheckpointData); len(got) != 0 {
		t.Fatalf("%d payloads served to non-members or redirected", len(got))
	}
	w.r.Receive(101, &wire.CheckpointFetch{Seq: 4, Executor: 101}, 0)
	if got := w.cap.byType(wire.TCheckpointData); len(got) != 1 {
		t.Fatalf("member's own fetch answered %d times, want 1", len(got))
	}
}
