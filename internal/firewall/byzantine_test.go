package firewall

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

// Byzantine executors against a top-row filter that holds shares unproven
// and proves them only when a combination fails.

// lyingShare is executor idx's share over es with a well-formed but wrong Xi:
// it passes every check that costs no cryptography.
func lyingShare(t *testing.T, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	m := share(t, idx, es)
	sh, err := threshold.UnmarshalSigShare(m.Share)
	if err != nil {
		t.Fatal(err)
	}
	sh.Xi.Add(sh.Xi, big.NewInt(1))
	m.Share = sh.Marshal()
	return m
}

// certsDown returns the certificates the filter multicast to one row-0 filter.
func certsDown(cap *capture) []*wire.ReplyCert {
	var out []*wire.ReplyCert
	for _, s := range cap.sent {
		if c, ok := s.msg.(*wire.ReplyCert); ok && s.to == top.Filters[0][0] {
			out = append(out, c)
		}
	}
	return out
}

func TestWrongXiShareEvictedAndCertificateUnchanged(t *testing.T) {
	cap := &capture{}
	f := topFilter(t, cap)
	es := entries(1)
	f.Receive(200, order(1), 0)
	f.Receive(100, lyingShare(t, 0, es), 0)
	f.Receive(101, share(t, 1, es), 0)
	if len(certsDown(cap)) != 0 {
		t.Fatal("a lying share produced a certificate")
	}
	if f.Metrics.SharesRejected != 1 {
		t.Fatalf("rejected = %d, want exactly the culprit", f.Metrics.SharesRejected)
	}
	f.Receive(102, share(t, 2, es), 0)
	down := certsDown(cap)
	if len(down) != 1 {
		t.Fatalf("%d certificates down after g+1 correct shares, want 1", len(down))
	}
	// Byte-identical to the certificate of an all-correct run (§4.2.2: no
	// trace of who answered, or of who lied).
	if !bytes.Equal(wire.Marshal(down[0]), wire.Marshal(cert(t, es))) {
		t.Error("certificate differs from the all-proven one")
	}
	if f.Metrics.SharesRejected != 1 || f.Metrics.CertsCombined != 1 {
		t.Errorf("rejected = %d combined = %d, want 1 and 1", f.Metrics.SharesRejected, f.Metrics.CertsCombined)
	}
}

func TestShareAttributedToItsSender(t *testing.T) {
	cap := &capture{}
	f := topFilter(t, cap)
	es := entries(1)
	f.Receive(200, order(1), 0)
	// Executor 102 (or anyone else) names executor 101 in a forged share:
	// dropped at the door, before the assembler or any proof.
	forged := lyingShare(t, 1, es)
	for _, from := range []types.NodeID{102, 211, 0} {
		f.Receive(from, forged, 0)
	}
	if f.Metrics.SharesRejected != 3 {
		t.Fatalf("rejected = %d, want 3", f.Metrics.SharesRejected)
	}
	if f.assembler.Pending() != 0 || f.assembler.Rejected != 0 {
		t.Fatal("a misattributed share reached the assembler")
	}
	// 101's slot was never touched: its real share certifies with the
	// next one, and nothing of 101's is ever evicted.
	f.Receive(101, share(t, 1, es), 0)
	f.Receive(100, share(t, 0, es), 0)
	if len(certsDown(cap)) != 1 {
		t.Fatal("the named executor's real share did not certify")
	}
	if f.Metrics.SharesRejected != 3 {
		t.Errorf("rejected = %d after the real shares, want still 3", f.Metrics.SharesRejected)
	}
}

func TestForgeryInSlotDoesNotDelayRealShare(t *testing.T) {
	cap := &capture{}
	f := topFilter(t, cap)
	es := entries(1)
	f.Receive(200, order(1), 0)
	// A forgery reaches 101's slot over 101's own link (a Byzantine
	// network stack, a replayed corruption): 101's real share displaces
	// it on arrival, and the bundle certifies with the next correct share.
	f.Receive(101, lyingShare(t, 1, es), 0)
	f.Receive(101, share(t, 1, es), 0)
	f.Receive(100, share(t, 0, es), 0)
	if len(certsDown(cap)) != 1 {
		t.Fatal("a forgery parked in the slot delayed the certificate")
	}
	if f.Metrics.SharesRejected != 1 {
		t.Errorf("rejected = %d, want 1 (the displaced forgery)", f.Metrics.SharesRejected)
	}
}

func TestDuplicateCertificateSkipsVerification(t *testing.T) {
	cap := &capture{}
	f := bottomFilter(t, cap)
	f.Receive(0, order(1), 0)
	f.Receive(210, cert(t, entries(1)), 0)
	// The slot holds its reply: whatever arrives for it now is a duplicate,
	// valid or not, and is dropped before the signature is looked at.
	bad := cert(t, entries(1))
	bad.ThresholdSig[0] ^= 1
	f.Receive(211, bad, 0)
	f.Receive(211, cert(t, entries(1)), 0)
	if f.Metrics.DuplicatesDrops != 2 || f.Metrics.SharesRejected != 0 {
		t.Errorf("duplicates = %d rejected = %d, want 2 and 0", f.Metrics.DuplicatesDrops, f.Metrics.SharesRejected)
	}
	if got := cap.count(wire.TReplyCert, top.Agreement[0]); got != 1 {
		t.Errorf("agreement 0 received %d copies, want 1", got)
	}
}
