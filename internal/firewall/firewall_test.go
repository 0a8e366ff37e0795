package firewall

import (
	"sync"
	"testing"

	"repro/internal/replycert"
	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

var top = &types.Topology{
	Agreement: []types.NodeID{0, 1, 2, 3},
	Execution: []types.NodeID{100, 101, 102},
	Filters:   [][]types.NodeID{{200, 201}, {210, 211}},
	Clients:   []types.NodeID{1000},
}

var (
	thOnce   sync.Once
	thPub    *threshold.PublicKey
	thShares []*threshold.KeyShare
)

func thresholdWorld(t *testing.T) (*threshold.PublicKey, []*threshold.KeyShare) {
	t.Helper()
	thOnce.Do(func() {
		var err error
		thPub, thShares, err = threshold.Deal(threshold.NewSeededReader("fw"), 512, 2, 3)
		if err != nil {
			t.Fatalf("deal: %v", err)
		}
	})
	return thPub, thShares
}

type sentMsg struct {
	to  types.NodeID
	msg wire.Message
}

type capture struct{ sent []sentMsg }

func (c *capture) sender() func(types.NodeID, []byte) {
	return func(to types.NodeID, data []byte) {
		m, err := wire.Unmarshal(data)
		if err != nil {
			panic(err)
		}
		c.sent = append(c.sent, sentMsg{to, m})
	}
}

func (c *capture) count(mt wire.MsgType, to types.NodeID) int {
	n := 0
	for _, s := range c.sent {
		if s.msg.Type() == mt && (to == types.NoNode || s.to == to) {
			n++
		}
	}
	return n
}

// topFilter builds a top-row filter (adjacent to executors).
func topFilter(t *testing.T, cap *capture) *Filter {
	t.Helper()
	pub, _ := thresholdWorld(t)
	f, err := New(Config{
		ID:          210,
		Topology:    top,
		Row:         1,
		UpTargets:   top.Execution,
		DownTargets: top.Filters[0],
		Verifier:    replycert.NewVerifier(replycert.ModeThreshold, top, nil, pub),
		TopRow:      true,
		Pipeline:    8,
	}, cap.sender())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// bottomFilter builds a row-0 filter (adjacent to agreement).
func bottomFilter(t *testing.T, cap *capture) *Filter {
	t.Helper()
	pub, _ := thresholdWorld(t)
	f, err := New(Config{
		ID:          200,
		Topology:    top,
		Row:         0,
		UpTargets:   []types.NodeID{210},
		DownTargets: top.Agreement,
		Verifier:    replycert.NewVerifier(replycert.ModeThreshold, top, nil, pub),
		Pipeline:    8,
	}, cap.sender())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func order(n types.SeqNum) *wire.Order {
	return &wire.Order{View: 0, Seq: n, Replica: 0,
		Requests: []wire.Request{{Client: 1000, Timestamp: types.Timestamp(n), Op: []byte("x")}}}
}

func entries(n types.SeqNum) []wire.Reply {
	return []wire.Reply{{Seq: n, Client: 1000, Timestamp: types.Timestamp(n), Body: []byte("r")}}
}

// share is executor idx's bare share over es, as executors send it.
func share(t *testing.T, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	_, shares := thresholdWorld(t)
	sh := shares[idx].Share(wire.BundleDigest(es))
	return &wire.ExecReply{Entries: es, Executor: top.Execution[idx], Share: sh.Marshal()}
}

// provenShare is executor idx's proven share over es, as it answers a proof
// request.
func provenShare(t *testing.T, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	_, shares := thresholdWorld(t)
	sh, err := shares[idx].Sign(threshold.NewSeededReader("fw-share"), wire.BundleDigest(es))
	if err != nil {
		t.Fatal(err)
	}
	return &wire.ExecReply{Entries: es, Executor: top.Execution[idx], Share: sh.Marshal()}
}

func cert(t *testing.T, es []wire.Reply) *wire.ReplyCert {
	t.Helper()
	pub, _ := thresholdWorld(t)
	digest := wire.BundleDigest(es)
	s0, _ := thShares[0].Sign(threshold.NewSeededReader("c0"), digest)
	s1, _ := thShares[1].Sign(threshold.NewSeededReader("c1"), digest)
	sig, err := pub.Combine(digest, []*threshold.SigShare{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	return &wire.ReplyCert{Entries: es, ThresholdSig: sig}
}

func TestOrdersForwardUp(t *testing.T) {
	cap := &capture{}
	f := bottomFilter(t, cap)
	f.Receive(0, order(1), 0)
	if cap.count(wire.TOrder, 210) != 1 {
		t.Fatal("order not forwarded to the filter above")
	}
	// Each agreement replica's piece is forwarded (no dedup on the way
	// up: executors need 2f+1 distinct pieces).
	o2 := order(1)
	o2.Replica = 1
	f.Receive(1, o2, 0)
	if cap.count(wire.TOrder, 210) != 2 {
		t.Error("second order piece suppressed; agreement certificate cannot assemble")
	}
	// The top row multicasts to every executor.
	capTop := &capture{}
	ft := topFilter(t, capTop)
	ft.Receive(200, order(1), 0)
	for _, e := range top.Execution {
		if capTop.count(wire.TOrder, e) != 1 {
			t.Errorf("executor %v did not receive the order", e)
		}
	}
}

func TestTopRowCombinesShares(t *testing.T) {
	cap := &capture{}
	f := topFilter(t, cap)
	es := entries(1)
	f.Receive(200, order(1), 0) // request seen from below
	f.Receive(100, share(t, 0, es), 0)
	if cap.count(wire.TReplyCert, types.NoNode) != 0 {
		t.Fatal("combined below the share quorum")
	}
	f.Receive(101, share(t, 1, es), 0)
	// One multicast down: one cert per row-0 filter.
	for _, d := range top.Filters[0] {
		if cap.count(wire.TReplyCert, d) != 1 {
			t.Errorf("row-0 filter %v did not receive the certificate", d)
		}
	}
	if f.Metrics.CertsCombined != 1 {
		t.Errorf("combined = %d", f.Metrics.CertsCombined)
	}
	// A third share must not cause a second multicast (dedup, §4.2.2).
	f.Receive(102, share(t, 2, es), 0)
	if cap.count(wire.TReplyCert, top.Filters[0][0]) != 1 {
		t.Error("extra share caused a duplicate downward multicast")
	}
}

func TestForgedSharesRejected(t *testing.T) {
	cap := &capture{}
	f := topFilter(t, cap)
	f.Receive(200, order(1), 0)
	es := entries(1)
	// Garbage share bytes.
	f.Receive(100, &wire.ExecReply{Entries: es, Executor: 100, Share: []byte("junk")}, 0)
	// Share from a non-executor identity.
	s := share(t, 0, es)
	s.Executor = 0
	f.Receive(0, s, 0)
	// Share index not matching executor.
	s2 := share(t, 0, es)
	s2.Executor = top.Execution[1]
	f.Receive(101, s2, 0)
	if f.Metrics.SharesRejected != 3 {
		t.Errorf("rejected = %d, want 3", f.Metrics.SharesRejected)
	}
	if cap.count(wire.TReplyCert, types.NoNode) != 0 {
		t.Error("forged shares produced a certificate")
	}
}

func TestReplyBeforeRequestIsHeld(t *testing.T) {
	// An unsolicited reply from above must not create downward traffic
	// until a request for that sequence number arrives from below (§4.1).
	cap := &capture{}
	f := bottomFilter(t, cap)
	c := cert(t, entries(1))
	f.Receive(210, c, 0)
	if cap.count(wire.TReplyCert, types.NoNode) != 0 {
		t.Fatal("unsolicited reply forwarded down")
	}
	if f.Metrics.RepliesStored != 1 {
		t.Fatal("reply not stored")
	}
	// The request arrives: answer from the state table.
	f.Receive(0, order(1), 0)
	for _, a := range top.Agreement {
		if cap.count(wire.TReplyCert, a) != 1 {
			t.Errorf("agreement %v did not receive the stored reply", a)
		}
	}
	// And the request was NOT forwarded up (the answer is known).
	if cap.count(wire.TOrder, 210) != 0 {
		t.Error("request forwarded up although the reply was cached")
	}
}

func TestDuplicateRepliesDropped(t *testing.T) {
	cap := &capture{}
	f := bottomFilter(t, cap)
	f.Receive(0, order(1), 0)
	c := cert(t, entries(1))
	f.Receive(210, c, 0)
	f.Receive(211, c, 0) // same certificate from the other column
	if got := cap.count(wire.TReplyCert, top.Agreement[0]); got != 1 {
		t.Errorf("agreement 0 received %d copies, want 1 (dedup)", got)
	}
	if f.Metrics.DuplicatesDrops != 1 {
		t.Errorf("duplicate drops = %d", f.Metrics.DuplicatesDrops)
	}
}

func TestInvalidCertificateNeverPassesDown(t *testing.T) {
	// The core confidentiality property: a filter below the correct cut
	// re-verifies; a fabricated certificate cannot descend.
	cap := &capture{}
	f := bottomFilter(t, cap)
	f.Receive(0, order(1), 0)
	bad := cert(t, entries(1))
	bad.ThresholdSig[0] ^= 1
	f.Receive(210, bad, 0)
	if cap.count(wire.TReplyCert, types.NoNode) != 0 {
		t.Fatal("corrupted certificate passed a correct filter")
	}
	forged := &wire.ReplyCert{Entries: []wire.Reply{{Seq: 1, Client: 1000, Body: []byte("LEAK")}}, ThresholdSig: []byte("x")}
	f.Receive(210, forged, 0)
	if cap.count(wire.TReplyCert, types.NoNode) != 0 {
		t.Fatal("forged certificate passed a correct filter")
	}
	if f.Metrics.SharesRejected != 2 {
		t.Errorf("rejected = %d", f.Metrics.SharesRejected)
	}
}

func TestNonTopRowIgnoresRawShares(t *testing.T) {
	cap := &capture{}
	f := bottomFilter(t, cap)
	f.Receive(210, share(t, 0, entries(1)), 0)
	if len(cap.sent) != 0 {
		t.Error("bottom-row filter acted on a raw executor share")
	}
}

func TestStateTableGC(t *testing.T) {
	cap := &capture{}
	f := bottomFilter(t, cap) // Pipeline = 8
	for n := types.SeqNum(1); n <= 20; n++ {
		f.Receive(0, order(n), 0)
	}
	if len(f.state) > 9 {
		t.Errorf("state table holds %d entries; GC bound is P+1", len(f.state))
	}
	// Entries below maxN-P are rejected as too old.
	f.Receive(0, order(2), 0)
	if f.Metrics.DroppedOld == 0 {
		t.Error("ancient sequence number not dropped")
	}
}

func TestRepeatedRequestAnswersFromStateTable(t *testing.T) {
	cap := &capture{}
	f := bottomFilter(t, cap)
	f.Receive(0, order(1), 0)
	f.Receive(210, cert(t, entries(1)), 0)
	base := cap.count(wire.TReplyCert, top.Agreement[0])
	// A retransmitted request is answered locally, once per request.
	f.Receive(0, order(1), 0)
	f.Receive(0, order(1), 0)
	if got := cap.count(wire.TReplyCert, top.Agreement[0]); got != base+2 {
		t.Errorf("retransmissions answered %d times, want 2", got-base)
	}
	// No additional upward traffic for answered requests.
	if got := cap.count(wire.TOrder, 210); got != 1 {
		t.Errorf("answered request forwarded up %d times, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	send := func(types.NodeID, []byte) {}
	if _, err := New(Config{Topology: top, ID: 200}, send); err == nil {
		t.Error("accepted filter without targets")
	}
	if _, err := New(Config{ID: 200, UpTargets: []types.NodeID{1}, DownTargets: []types.NodeID{2}}, send); err == nil {
		t.Error("accepted filter without topology")
	}
}

// orderedFilter builds a bottom-row filter with the §4.3 ordered-release
// restriction enabled.
func orderedFilter(t *testing.T, cap *capture, holdMax types.Time) *Filter {
	t.Helper()
	pub, _ := thresholdWorld(t)
	f, err := New(Config{
		ID:             200,
		Topology:       top,
		Row:            0,
		UpTargets:      []types.NodeID{210},
		DownTargets:    top.Agreement,
		Verifier:       replycert.NewVerifier(replycert.ModeThreshold, top, nil, pub),
		Pipeline:       8,
		OrderedRelease: true,
		HoldMax:        holdMax,
	}, cap.sender())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOrderedReleaseReordersReplies(t *testing.T) {
	cap := &capture{}
	f := orderedFilter(t, cap, types.Millisecond(50))
	f.Receive(0, order(1), 0)
	f.Receive(0, order(2), 0)
	// Reply 2 arrives first: it must be held, not forwarded.
	f.Receive(210, cert(t, entries(2)), 0)
	if cap.count(wire.TReplyCert, top.Agreement[0]) != 0 {
		t.Fatal("out-of-order reply escaped the ordered-release hold")
	}
	if f.Metrics.HeldForOrder != 1 {
		t.Errorf("held = %d", f.Metrics.HeldForOrder)
	}
	// Reply 1 arrives: both flush, in order.
	f.Receive(210, cert(t, entries(1)), 0)
	certs := 0
	var seqs []types.SeqNum
	for _, s := range cap.sent {
		if m, ok := s.msg.(*wire.ReplyCert); ok && s.to == top.Agreement[0] {
			certs++
			seqs = append(seqs, m.MaxSeq())
		}
	}
	if certs != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("release order: %v", seqs)
	}
}

func TestOrderedReleaseTimesOutGaps(t *testing.T) {
	cap := &capture{}
	f := orderedFilter(t, cap, types.Millisecond(20))
	f.Receive(0, order(5), 0)
	// Sequence 1-4 will never produce replies (e.g. null batches); reply 5
	// is held...
	f.Receive(210, cert(t, entries(5)), types.Millisecond(1))
	if cap.count(wire.TReplyCert, top.Agreement[0]) != 0 {
		t.Fatal("gap reply released immediately")
	}
	f.Tick(types.Millisecond(10)) // not yet overdue
	if cap.count(wire.TReplyCert, top.Agreement[0]) != 0 {
		t.Fatal("gap reply released before HoldMax")
	}
	// ...until the hold expires, preserving liveness.
	f.Tick(types.Millisecond(25))
	if cap.count(wire.TReplyCert, top.Agreement[0]) != 1 {
		t.Fatal("overdue reply never released; ordered release breaks liveness")
	}
	if f.Metrics.TimeoutReleases != 1 {
		t.Errorf("timeout releases = %d", f.Metrics.TimeoutReleases)
	}
}
