package mqueue

import (
	"math/big"
	"testing"

	"repro/internal/replycert"
	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

// The queue as threshold combiner: executors send bare shares, and only a
// failed combination makes the queue ask executors for proofs.

func thresholdQueue(t *testing.T, dests []types.NodeID) (*world, []*threshold.KeyShare) {
	t.Helper()
	pub, shares, err := threshold.Deal(threshold.NewSeededReader("mq-threshold"), 512, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t, func(c *Config) {
		c.Verifier = replycert.NewVerifier(replycert.ModeThreshold, top, nil, pub)
		c.Dests = dests
	})
	return w, shares
}

func bundle(seq types.SeqNum) []wire.Reply {
	return []wire.Reply{{View: 0, Seq: seq, Client: 1000, Timestamp: types.Timestamp(seq), Body: []byte("res")}}
}

// share is executor idx's share over es: bare, proven, and/or lying.
func share(t *testing.T, shares []*threshold.KeyShare, idx int, es []wire.Reply, proven, lying bool) *wire.ExecReply {
	t.Helper()
	sh := shares[idx].Share(wire.BundleDigest(es))
	if proven {
		if err := shares[idx].Prove(threshold.NewSeededReader("mq-proof"), wire.BundleDigest(es), sh); err != nil {
			t.Fatal(err)
		}
	}
	if lying {
		sh.Xi.Add(sh.Xi, big.NewInt(1))
	}
	return &wire.ExecReply{Entries: es, Executor: top.Execution[idx], Share: sh.Marshal()}
}

// asked lists the executors sent a proof request, in order.
func (c *capture) asked() []types.NodeID {
	var out []types.NodeID
	for _, s := range c.sent {
		if _, ok := s.msg.(*wire.ProofRequest); ok {
			out = append(out, s.to)
		}
	}
	return out
}

func TestQueueAsksForProofsAfterFailedCombination(t *testing.T) {
	w, shares := thresholdQueue(t, top.Execution)
	es := bundle(1)
	w.q.Execute(0, 1, types.NonDet{}, []wire.Request{req(1)}, 0)
	w.q.OnExecReply(share(t, shares, 0, es, false, true), 0)
	w.q.OnExecReply(share(t, shares, 1, es, false, false), 0)
	if got := w.cap.asked(); len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("asked %v after the failed combination, want [100 101]", got)
	}
	// Re-asked from Tick once per ProofRetry while unproven.
	w.q.Tick(replycert.ProofRetry / 2)
	if len(w.cap.asked()) != 2 {
		t.Fatal("re-asked before ProofRetry")
	}
	w.q.OnExecReply(share(t, shares, 1, es, true, false), replycert.ProofRetry/2)
	w.q.Tick(replycert.ProofRetry)
	if got := w.cap.asked(); len(got) != 3 || got[2] != 100 {
		t.Fatalf("asked %v, want only the unproven executor re-asked", got)
	}
	// The liar's proof fails; the third executor's share, asked for on
	// arrival, completes the certificate.
	w.q.OnExecReply(share(t, shares, 0, es, true, true), replycert.ProofRetry)
	w.q.OnExecReply(share(t, shares, 2, es, false, false), replycert.ProofRetry)
	if got := w.cap.asked(); len(got) != 4 || got[3] != 102 {
		t.Fatalf("asked %v, want 102 asked on arrival", got)
	}
	w.q.OnExecReply(share(t, shares, 2, es, true, false), replycert.ProofRetry)
	if len(w.cap.certsTo(1000)) != 1 || w.q.LastReplied() != 1 {
		t.Fatal("two proven correct shares did not certify")
	}
	if w.q.Metrics.SharesRejected != 1 {
		t.Errorf("rejected = %d, want the liar's failing proof", w.q.Metrics.SharesRejected)
	}
	w.q.Tick(10 * replycert.ProofRetry)
	if len(w.cap.asked()) != 4 {
		t.Error("asked again after the bundle certified")
	}
}

func TestQueueHonestRunSendsNoProofRequests(t *testing.T) {
	w, shares := thresholdQueue(t, top.Execution)
	for n := types.SeqNum(1); n <= 12; n++ {
		now := types.Time(n) * replycert.ProofRetry
		w.q.Execute(0, n, types.NonDet{}, []wire.Request{req(types.Timestamp(n))}, now)
		for idx := 0; idx < 3; idx++ {
			w.q.OnExecReply(share(t, shares, idx, bundle(n), false, false), now)
		}
		w.q.Tick(now + 1)
	}
	if len(w.cap.certsTo(1000)) != 12 || len(w.cap.asked()) != 0 {
		t.Fatalf("%d certificates, %d proof requests; want 12 and none", len(w.cap.certsTo(1000)), len(w.cap.asked()))
	}
}

func TestQueueAsksOnlyItsExecutorDestinations(t *testing.T) {
	// Behind the firewall the queue's destinations are the bottom filter
	// row: it has no link to executors and never asks them.
	w, shares := thresholdQueue(t, []types.NodeID{200, 201})
	es := bundle(1)
	w.q.OnExecReply(share(t, shares, 0, es, false, true), 0)
	w.q.OnExecReply(share(t, shares, 1, es, false, false), 0)
	w.q.Tick(replycert.ProofRetry)
	if got := w.cap.asked(); len(got) != 0 {
		t.Fatalf("asked %v outside the queue's destinations", got)
	}
}
