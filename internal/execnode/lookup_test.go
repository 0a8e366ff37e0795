package execnode

import (
	"bytes"
	"testing"

	"repro/internal/auth"
	"repro/internal/types"
	"repro/internal/wire"
)

// countingScheme counts Verify calls per (kind, attesting node).
type countingScheme struct {
	auth.Scheme
	verifies map[types.NodeID]int
}

func (c *countingScheme) Verify(kind auth.Kind, d types.Digest, a auth.Attestation) error {
	if kind == auth.KindOrder {
		c.verifies[a.Node]++
	}
	return c.Scheme.Verify(kind, d, a)
}

func TestDuplicateOrderPiecesVerifiedOnce(t *testing.T) {
	var counting *countingScheme
	w := newWorld(t, func(c *Config) {
		counting = &countingScheme{Scheme: c.OrderAuth, verifies: make(map[types.NodeID]int)}
		c.OrderAuth = counting
	})
	reqs := []wire.Request{w.req("inc")}
	// Sequence 2 sits above a hole (1 is missing), so nothing executes and
	// the pieces stay pending. Every piece arrives once per filter column
	// and again on each retransmission.
	for round := 0; round < 4; round++ {
		for _, a := range top.Agreement[:2] {
			w.r.Receive(a, w.order(a, 2, reqs), types.Millisecond(int64(100*round)))
		}
	}
	for _, a := range top.Agreement[:2] {
		if counting.verifies[a] != 1 {
			t.Errorf("replica %v's piece for one slot was verified %d times, want 1", a, counting.verifies[a])
		}
	}
	if w.r.MaxN() != 0 {
		t.Fatal("executed across a hole")
	}
	// Each duplicate above the hole re-armed gap filling once its retry
	// interval had passed: one FetchMissing round per 100 ms step.
	fetches := len(w.cap.byType(wire.TFetchMissing))
	if want := 4 * (len(top.Execution) - 1); fetches != want {
		t.Errorf("%d FetchMissing sent, want %d: duplicates above a hole must keep asking", fetches, want)
	}
	// A forged piece is still verified (and refused) every time.
	forged := w.order(top.Agreement[2], 2, reqs)
	forged.Att.Proof = append([]byte(nil), forged.Att.Proof...)
	forged.Att.Proof[0] ^= 1
	w.r.Receive(top.Agreement[2], forged, 0)
	w.r.Receive(top.Agreement[2], forged, 0)
	if counting.verifies[top.Agreement[2]] != 2 {
		t.Errorf("forged piece verified %d times, want 2 (it is never recorded)", counting.verifies[top.Agreement[2]])
	}
	// The hole fills: both slots execute from the pieces already held.
	w.commit(1, []wire.Request{w.req("inc")})
	w.r.Receive(top.Agreement[2], w.order(top.Agreement[2], 2, reqs), 0)
	if w.r.MaxN() != 2 {
		t.Fatalf("maxN = %d after the hole filled, want 2", w.r.MaxN())
	}
}

func TestRetransmittedOrderResendsTheSentBytes(t *testing.T) {
	w := newWorld(t, nil)
	reqs := []wire.Request{w.req("inc")}
	w.commit(1, reqs)
	first := w.cap.repliesTo(top.Agreement[0])
	if len(first) != 1 {
		t.Fatalf("%d shares sent on execution, want 1", len(first))
	}
	// Duplicate orders for the executed slot (the other filter column's
	// copies, then retransmissions): one cached share per copy, the same
	// message every time.
	for i := 0; i < 5; i++ {
		w.r.Receive(top.Agreement[3], w.order(top.Agreement[3], 1, reqs), 0)
	}
	all := w.cap.repliesTo(top.Agreement[0])
	if len(all) != 6 {
		t.Fatalf("%d shares sent, want 6 (message counts must not change)", len(all))
	}
	want := wire.Marshal(first[0])
	for i, m := range all {
		if !bytes.Equal(wire.Marshal(m), want) {
			t.Fatalf("resent share %d differs from the one first sent", i)
		}
	}
}
