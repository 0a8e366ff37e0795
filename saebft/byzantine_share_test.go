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

// TestFirewallMasksCorruptedShares runs the privacy firewall end to end with
// one executor whose every reply share is corrupted in the one way the free
// checks cannot see: right bundle, right player index, canonical encoding,
// wrong value. The top-row filters hold shares unproven, so these get as far
// as a combination; the combined signature then fails the filter's own
// verification, the proofs name the culprit, and the certificate assembles
// from the g+1 correct shares. Results stay correct, the culprit is counted,
// and no plaintext crosses any link.
func TestFirewallMasksCorruptedShares(t *testing.T) {
	c := startSim(t, WithMode(ModeFirewall), WithApp("kv"), WithClients(1))
	sr, err := c.sim()
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("routing-number: 021000021")
	leaks := 0
	if err := c.Tap(func(from, to int, payload []byte) {
		if bytes.Contains(payload, secret) {
			leaks++
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Executor 0 holds the lowest player index, so whenever its share is
	// among the first g+1 to arrive it is one of those combined.
	evil := c.builder.Top.Execution[0]
	corrupted := 0
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
					sh.Xi.Add(sh.Xi, big.NewInt(1))
					er.Share = sh.Marshal()
					data = wire.Marshal(er)
					corrupted++
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

	ctx := context.Background()
	cl := c.Client()
	for i := 0; i < 6; i++ {
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
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("the adversary sent nothing; test is vacuous")
	}
	if st.SharesRejected == 0 {
		t.Fatalf("%d corrupted shares sent, none rejected", corrupted)
	}
	if leaks != 0 {
		t.Fatalf("secret crossed the network in plaintext %d times", leaks)
	}
}
