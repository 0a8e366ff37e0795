package execnode

import (
	"testing"

	"repro/internal/auth"
	"repro/internal/replycert"
	"repro/internal/types"
	"repro/internal/wire"
)

// readMACs builds the pairwise-MAC schemes of the certified-read hop for
// every node of the test topology.
func readMACs() map[types.NodeID]*auth.MACScheme {
	all := top.AllNodes()
	out := make(map[types.NodeID]*auth.MACScheme, len(all))
	for _, id := range all {
		out[id] = auth.NewMACScheme(auth.NewKeyRing([]byte("exec-read-test"), id, all))
	}
	return out
}

// probe builds client 1000's read probe for op, attested by scheme toward
// dests.
func probe(t *testing.T, scheme auth.Scheme, op string, dests ...types.NodeID) *wire.ReadRequest {
	t.Helper()
	m := &wire.ReadRequest{Client: 1000, Nonce: 9, Op: []byte(op)}
	att, err := scheme.Attest(auth.KindReadRequest, m.Digest(), dests)
	if err != nil {
		t.Fatal(err)
	}
	m.Att = att
	return m
}

// readReplies returns the read replies the replica has sent so far.
func (w *world) readReplies() []*wire.ReadReply {
	var out []*wire.ReadReply
	for _, m := range w.cap.byType(wire.TReadReply) {
		out = append(out, m.(*wire.ReadReply))
	}
	return out
}

// TestReadAnswersOnlyAuthenticProbes: an executor answers a probe whose MAC
// slot for it verifies, with an answer MAC'd for the asking client alone,
// and stays silent on a forged or missing slot, on an Ed25519-attested
// probe (a client that predates MAC reads), and when its read path is off.
func TestReadAnswersOnlyAuthenticProbes(t *testing.T) {
	macs := readMACs()
	w := newWorld(t, func(c *Config) { c.ReadAuth = macs[100] })
	w.commit(1, []wire.Request{w.req("inc")})

	w.r.Receive(1000, probe(t, macs[1000], "get", top.Execution...), 0)
	replies := w.readReplies()
	if len(replies) != 1 {
		t.Fatalf("authentic probe drew %d replies, want 1", len(replies))
	}
	rep := replies[0]
	if string(rep.Body) != "1" || rep.Refused || rep.AppliedSeq != 1 {
		t.Fatalf("answer = %q refused=%v at %d, want 1 at 1", rep.Body, rep.Refused, rep.AppliedSeq)
	}
	if err := replycert.NewReadVerifier(top, macs[1000]).VerifyReadReply(rep); err != nil {
		t.Fatalf("the asking client cannot verify the answer: %v", err)
	}
	if err := replycert.NewReadVerifier(top, macs[1001]).VerifyReadReply(rep); err == nil {
		t.Fatal("another client verified an answer MAC'd for client 1000")
	}

	forged := probe(t, macs[1000], "get", top.Execution...)
	forged.Att.Proof[4+4] ^= 1 // slots sort by id: executor 100's MAC opens the vector
	cases := map[string]struct {
		cfg func(*Config)
		m   *wire.ReadRequest
	}{
		"forged slot":   {m: forged},
		"missing slot":  {m: probe(t, macs[1000], "get", 101, 102)},
		"Ed25519 probe": {m: probe(t, w.schemes[1000], "get", top.Execution...)},
		"read path off": {cfg: func(c *Config) { c.ReadAuth = nil }, m: probe(t, macs[1000], "get", top.Execution...)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, func(c *Config) {
				c.ReadAuth = macs[100]
				if tc.cfg != nil {
					tc.cfg(c)
				}
			})
			w.commit(1, []wire.Request{w.req("inc")})
			w.r.Receive(1000, tc.m, 0)
			if n := len(w.readReplies()); n != 0 {
				t.Fatalf("drew %d replies, want none", n)
			}
			if w.r.Metrics.ReadsServed+w.r.Metrics.ReadsRefused != 0 {
				t.Fatal("the probe was counted as served")
			}
		})
	}
}
