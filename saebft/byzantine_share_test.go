package saebft

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

// lyingExecutor replaces executor 0 with a replica whose every reply share
// is corrupted in the one way the free checks cannot see: right bundle,
// right player index, canonical encoding, wrong value. That includes its
// answers to proof requests, whose proofs therefore fail; a mute one sends
// no answers at all. It returns the count of corrupted shares sent.
func lyingExecutor(t *testing.T, c *Cluster, mute bool) *int {
	t.Helper()
	sr, err := c.sim()
	if err != nil {
		t.Fatal(err)
	}
	// Executor 0 holds the lowest player index, so whenever its share is
	// among the first g+1 to arrive it is one of those combined.
	evil := c.builder.Top.Execution[0]
	corrupted := new(int)
	var buildErr error
	if err := sr.do(func() {
		send := sr.c.Net.Bind(evil)
		node, _, err := c.builder.ExecNode(evil, func(to types.NodeID, data []byte) {
			if m, err := wire.Unmarshal(data); err == nil {
				if er, ok := m.(*wire.ExecReply); ok {
					sh, err := threshold.UnmarshalSigShare(er.Share)
					if err != nil {
						t.Errorf("executor produced an undecodable share: %v", err)
						return
					}
					if mute && sh.HasProof() {
						return
					}
					sh.Xi.Add(sh.Xi, big.NewInt(1))
					er.Share = sh.Marshal()
					data = wire.Marshal(er)
					*corrupted++
				}
			}
			send(to, data)
		})
		if err != nil {
			buildErr = err
			return
		}
		sr.c.Net.Swap(evil, node)
	}); err != nil {
		t.Fatal(err)
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return corrupted
}

// putGetRounds runs n put/get pairs whose values embed secret and checks
// every answer.
func putGetRounds(t *testing.T, c *Cluster, n int, secret []byte) {
	t.Helper()
	ctx := context.Background()
	cl := c.Client()
	for i := 0; i < n; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("%s #%d", secret, i)
		put, _ := EncodeOp("kv", "put", key, val)
		if _, err := cl.Invoke(ctx, put); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		get, _ := EncodeOp("kv", "get", key)
		got, err := cl.Invoke(ctx, get)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if string(got) != val {
			t.Fatalf("get %d = %q, want %q", i, got, val)
		}
	}
}

// proofCounters sums the cluster's proof requests sent by combiners and the
// proofs its executors computed.
func proofCounters(c *Cluster) (requests, proofs float64) {
	for _, m := range c.Metrics() {
		switch m.Name {
		case "saebft_share_proof_requests_total":
			requests += m.Value
		case "saebft_exec_share_proofs_total":
			proofs += m.Value
		}
	}
	return requests, proofs
}

// TestFirewallMasksCorruptedShares runs the privacy firewall end to end with
// one executor whose every reply share is corrupted, answers to proof
// requests included. The top-row filters hold shares unproven, so these get
// as far as a combination; the combined signature then fails the filter's
// own verification, the filter asks the executors whose shares it holds for
// proofs, the liar's proofs fail, and the certificate assembles from the
// g+1 correct shares. Results stay correct, the culprit is counted, and no
// plaintext crosses any link.
func TestFirewallMasksCorruptedShares(t *testing.T) {
	c := startSim(t, WithMode(ModeFirewall), WithApp("kv"), WithClients(1))
	secret := []byte("routing-number: 021000021")
	leaks := 0
	if err := c.Tap(func(from, to int, payload []byte) {
		if bytes.Contains(payload, secret) {
			leaks++
		}
	}); err != nil {
		t.Fatal(err)
	}
	corrupted := lyingExecutor(t, c, false)
	putGetRounds(t, c, 6, secret)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if *corrupted == 0 {
		t.Fatal("the adversary sent nothing; test is vacuous")
	}
	if st.SharesRejected == 0 {
		t.Fatalf("%d corrupted shares sent, none rejected", *corrupted)
	}
	if requests, proofs := proofCounters(c); requests == 0 || proofs == 0 {
		t.Fatalf("%v proof requests, %v proofs: the culprit was never asked", requests, proofs)
	}
	if leaks != 0 {
		t.Fatalf("secret crossed the network in plaintext %d times", leaks)
	}
}

// TestQueueMasksCorruptedShares is the same attack in the separated
// architecture with threshold replies, where the agreement replicas'
// message queues combine the shares and ask for the proofs.
func TestQueueMasksCorruptedShares(t *testing.T) {
	c := startSim(t, WithMode(ModeSeparate), WithReplyMode(ReplyThreshold), WithApp("kv"), WithClients(1))
	corrupted := lyingExecutor(t, c, false)
	putGetRounds(t, c, 6, []byte("balance"))
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if *corrupted == 0 {
		t.Fatal("the adversary sent nothing; test is vacuous")
	}
	if st.SharesRejected == 0 {
		t.Fatalf("%d corrupted shares sent, none rejected", *corrupted)
	}
	if requests, _ := proofCounters(c); requests == 0 {
		t.Fatal("no queue asked for a proof")
	}
}

// TestMuteProverMasked: executor 0 corrupts its shares and never answers a
// proof request. The combiners cannot name it, but every request still
// completes from the proofs of the other g+1 executors.
func TestMuteProverMasked(t *testing.T) {
	for _, mode := range []Mode{ModeFirewall, ModeSeparate} {
		t.Run(mode.String(), func(t *testing.T) {
			c := startSim(t, WithMode(mode), WithReplyMode(ReplyThreshold), WithApp("kv"), WithClients(1))
			corrupted := lyingExecutor(t, c, true)
			putGetRounds(t, c, 4, []byte("mute"))
			if *corrupted == 0 {
				t.Fatal("the adversary sent nothing; test is vacuous")
			}
			if requests, proofs := proofCounters(c); requests == 0 || proofs == 0 {
				t.Fatalf("%v proof requests, %v proofs: the correct executors were never asked", requests, proofs)
			}
		})
	}
}

// TestHonestRunRequestsNoProofs: with every executor correct, no combiner
// asks for a proof and no executor computes one, in either architecture.
func TestHonestRunRequestsNoProofs(t *testing.T) {
	for _, mode := range []Mode{ModeFirewall, ModeSeparate} {
		t.Run(mode.String(), func(t *testing.T) {
			c := startSim(t, WithMode(mode), WithReplyMode(ReplyThreshold), WithApp("kv"), WithClients(1))
			putGetRounds(t, c, 6, []byte("honest"))
			if requests, proofs := proofCounters(c); requests != 0 || proofs != 0 {
				t.Fatalf("%v proof requests, %v proofs in an honest run; want 0 and 0", requests, proofs)
			}
		})
	}
}
