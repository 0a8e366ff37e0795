package pbft

import (
	"fmt"
	"testing"

	"repro/internal/auth"
	"repro/internal/checkpoint"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestCheckpointVoteFloodIsBounded: a Byzantine backup's validly signed
// checkpoint votes for 5 000 distinct future sequence numbers leave at most
// VotesPerMember votes per member in a correct replica's table, and the
// cluster still makes checkpoints stable afterwards.
func TestCheckpointVoteFloodIsBounded(t *testing.T) {
	c := newCluster(t, 21, func(cfg *Config) {
		cfg.CheckpointInterval = 4
		cfg.WindowSize = 16
		cfg.BatchSize = 1
	})
	r0 := c.replicas[0]
	junk := types.DigestBytes([]byte("junk"))
	for i := types.SeqNum(1); i <= 5000; i++ {
		n := 1000 + i
		att, err := c.schemes[3].Attest(auth.KindAgreeCheckpoint, wire.CheckpointDigest(n, junk), c.top.Agreement)
		if err != nil {
			t.Fatal(err)
		}
		r0.Receive(3, &wire.AgreeCheckpoint{Seq: n, State: junk, Replica: 3, Att: att}, 0)
	}
	limit := checkpoint.VotesPerMember * len(c.top.Agreement)
	if held := len(r0.ckpt.Held()); held > limit {
		t.Fatalf("vote table holds %d votes after the flood, bound is %d", held, limit)
	}
	for i := 0; i < 8; i++ {
		c.sendTo(0, c.request(100, fmt.Sprintf("f%d", i)))
	}
	if !c.net.RunUntil(func() bool { return r0.LastStable() >= 8 }, types.Millisecond(3000)) {
		t.Fatalf("no checkpoint became stable after the flood (stable %d)", r0.LastStable())
	}
	if held := len(r0.ckpt.Held()); held > limit {
		t.Fatalf("vote table holds %d votes, bound is %d", held, limit)
	}
}

// TestCheckpointPayloadServedToMembersOnly: a stable checkpoint payload (the
// whole replicated state) goes only to an agreement replica asking for
// itself — never to a client, and never redirected to another member.
func TestCheckpointPayloadServedToMembersOnly(t *testing.T) {
	c := newCluster(t, 22, func(cfg *Config) {
		cfg.CheckpointInterval = 4
		cfg.WindowSize = 16
		cfg.BatchSize = 1
	})
	r0 := c.replicas[0]
	for i := 0; i < 8; i++ {
		c.sendTo(0, c.request(100, fmt.Sprintf("s%d", i)))
	}
	if !c.net.RunUntil(func() bool { return r0.LastStable() >= 8 }, types.Millisecond(3000)) {
		t.Fatal("no stable checkpoint formed; test is vacuous")
	}
	served := map[types.NodeID]int{}
	c.net.Tap(func(from, to types.NodeID, data []byte) {
		if m, err := wire.Unmarshal(data); err == nil && from == 0 && m.Type() == wire.TCheckpointData {
			served[to]++
		}
	})
	n := r0.LastStable()
	now := c.net.Now()
	r0.Receive(100, &wire.CheckpointFetch{Seq: n, Executor: 100}, now) // a client
	r0.Receive(1, &wire.CheckpointFetch{Seq: n, Executor: 2}, now)     // on another's behalf
	if len(served) != 0 {
		t.Fatalf("payload served to non-requesting or non-member nodes: %v", served)
	}
	r0.Receive(1, &wire.CheckpointFetch{Seq: n, Executor: 1}, now)
	if served[1] != 1 || len(served) != 1 {
		t.Fatalf("member's own fetch answered %v, want once to 1", served)
	}
}
