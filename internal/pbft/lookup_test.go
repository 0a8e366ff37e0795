package pbft

import (
	"fmt"
	"testing"

	"repro/internal/auth"
	"repro/internal/types"
	"repro/internal/wire"
)

// voteCounter counts the prepare and commit verifications one replica runs,
// per vote: the order digest names the (view, sequence number, batch), the
// attestation its sender.
type voteCounter struct {
	auth.Scheme
	verifies map[string]int
	total    int
}

func (c *voteCounter) Verify(kind auth.Kind, d types.Digest, a auth.Attestation) error {
	if kind == auth.KindPrepare || kind == auth.KindCommit {
		c.verifies[fmt.Sprintf("%v/%x/%v", kind, d[:6], a.Node)]++
		c.total++
	}
	return c.Scheme.Verify(kind, d, a)
}

// TestLateAndDuplicateVotesNotVerified: a vote costs a signature check only
// while it can still change its instance. Votes that arrive after the
// instance prepared (or committed), and repeats of a vote already recorded,
// are dropped unverified — at most one check per (slot, sender), and none at
// all for replays.
func TestLateAndDuplicateVotesNotVerified(t *testing.T) {
	counters := make(map[types.NodeID]*voteCounter)
	c := newCluster(t, 7, func(cfg *Config) {
		vc := &voteCounter{Scheme: cfg.ReplicaAuth, verifies: make(map[string]int)}
		counters[cfg.ID] = vc
		cfg.TransferAuth = cfg.ReplicaAuth.(auth.TransferScheme)
		cfg.ReplicaAuth = vc
	})
	type sentVote struct {
		from, to types.NodeID
		data     []byte
	}
	var votes []sentVote
	c.net.Tap(func(from, to types.NodeID, data []byte) {
		if m, err := wire.Unmarshal(data); err == nil {
			switch m.(type) {
			case *wire.Prepare, *wire.Commit:
				votes = append(votes, sentVote{from, to, data})
			}
		}
	})
	for i := 0; i < 6; i++ {
		c.sendTo(0, c.request(100+types.NodeID(i%3), fmt.Sprintf("op-%d", i)))
	}
	if !c.net.RunUntil(c.allExecuted(6), types.Millisecond(2000)) {
		t.Fatal("requests never executed everywhere")
	}
	c.assertConsistentLogs()

	received := make(map[types.NodeID]int)
	for _, v := range votes {
		received[v.to]++
	}
	for id, vc := range counters {
		for vote, n := range vc.verifies {
			if n > 1 {
				t.Errorf("replica %v verified %s %d times", id, vote, n)
			}
		}
		// With n = 3f+1 every slot has votes to spare: the last prepare and
		// the last commit find the instance already past their phase.
		if vc.total >= received[id] {
			t.Errorf("replica %v verified %d of %d votes received; late votes were not dropped", id, vc.total, received[id])
		}
	}

	// Replay every vote twice into the live instances (nothing has been
	// garbage-collected: the checkpoint interval is 8): no further checks.
	before := make(map[types.NodeID]int)
	for id, vc := range counters {
		before[id] = vc.total
	}
	now := c.net.Now()
	for round := 0; round < 2; round++ {
		for _, v := range votes {
			c.replicas[v.to].Deliver(v.from, v.data, now)
		}
	}
	for id, vc := range counters {
		if vc.total != before[id] {
			t.Errorf("replica %v ran %d signature checks on replayed votes", id, vc.total-before[id])
		}
	}
	c.assertConsistentLogs()
}
