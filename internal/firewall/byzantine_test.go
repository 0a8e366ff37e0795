package firewall

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/replycert"
	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

// Byzantine executors against a top-row filter that holds bare shares
// unproven and, when a combination fails, asks the executors it holds
// unproven shares of for their proofs. "Proof attached" cases send the
// liar's proof with its share from the start; "proof requested" cases send
// bare shares and answer the filter's requests.

// lyingShare is executor idx's share over es with a well-formed but wrong Xi
// and no proof: it passes every check that costs no cryptography.
func lyingShare(t *testing.T, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	return corrupt(t, share(t, idx, es))
}

// lyingProven is the same wrong Xi carrying the real share's proof, which
// therefore fails its check.
func lyingProven(t *testing.T, idx int, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	return corrupt(t, provenShare(t, idx, es))
}

func corrupt(t *testing.T, m *wire.ExecReply) *wire.ExecReply {
	t.Helper()
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

// proofRequests returns the executors the filter asked for a proof of es,
// in order, and fails on a request sent anywhere but up to an executor.
func proofRequests(t *testing.T, cap *capture, es []wire.Reply) []types.NodeID {
	t.Helper()
	var out []types.NodeID
	for _, s := range cap.sent {
		req, ok := s.msg.(*wire.ProofRequest)
		if !ok {
			continue
		}
		if role, _, _ := top.RoleOf(s.to); role != types.RoleExecution {
			t.Fatalf("proof request sent to %v, not to an executor", s.to)
		}
		if req.Bundle != wire.BundleDigest(es) || req.Client != es[0].Client {
			t.Fatalf("proof request names another bundle: %+v", req)
		}
		out = append(out, s.to)
	}
	return out
}

func TestWrongXiShareEvictedAndCertificateUnchanged(t *testing.T) {
	es := entries(1)

	// Proof attached: the culprit is named by the combination it broke.
	cap := &capture{}
	f := topFilter(t, cap)
	f.Receive(200, order(1), 0)
	f.Receive(100, lyingProven(t, 0, es), 0)
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
	if f.Metrics.SharesRejected != 1 || f.Metrics.CertsCombined != 1 || len(proofRequests(t, cap, es)) != 0 {
		t.Errorf("rejected = %d combined = %d requests = %v, want 1, 1 and none",
			f.Metrics.SharesRejected, f.Metrics.CertsCombined, proofRequests(t, cap, es))
	}

	// Proof requested: the failed combination asks both holders; the liar's
	// answer is refused, the correct one proven, and the next executor asked
	// as it arrives.
	cap = &capture{}
	f = topFilter(t, cap)
	f.Receive(200, order(1), 0)
	f.Receive(100, lyingShare(t, 0, es), 0)
	f.Receive(101, share(t, 1, es), 0)
	if asked := proofRequests(t, cap, es); len(asked) != 2 || asked[0] != 100 || asked[1] != 101 {
		t.Fatalf("asked %v after the failed combination, want [100 101]", asked)
	}
	if f.Metrics.SharesRejected != 0 || len(certsDown(cap)) != 0 {
		t.Fatal("a bare share was judged before its proof arrived")
	}
	f.Receive(100, lyingProven(t, 0, es), types.Millisecond(1))
	f.Receive(101, provenShare(t, 1, es), types.Millisecond(1))
	if f.Metrics.SharesRejected != 1 {
		t.Fatalf("rejected = %d after the liar's failing proof, want 1", f.Metrics.SharesRejected)
	}
	f.Receive(102, share(t, 2, es), types.Millisecond(2))
	if asked := proofRequests(t, cap, es); len(asked) != 3 || asked[2] != 102 {
		t.Fatalf("asked %v, want 102 asked on arrival", asked)
	}
	// The liar, still unproven, is asked again after ProofRetry; nobody else.
	f.Tick(replycert.ProofRetry - 1)
	f.Tick(replycert.ProofRetry)
	if asked := proofRequests(t, cap, es); len(asked) != 4 || asked[3] != 100 {
		t.Fatalf("asked %v, want the unproven liar re-asked once", asked)
	}
	f.Receive(102, provenShare(t, 2, es), replycert.ProofRetry)
	down = certsDown(cap)
	if len(down) != 1 || !bytes.Equal(wire.Marshal(down[0]), wire.Marshal(cert(t, es))) {
		t.Fatalf("%d certificates down, want the one all-proven certificate", len(down))
	}
	// Requests flowed up only: the traffic down is the one certificate.
	if got := cap.count(wire.TReplyCert, types.NoNode); got != len(top.Filters[0]) {
		t.Errorf("%d messages down, want one certificate per row-0 filter", got)
	}
	f.Tick(10 * replycert.ProofRetry)
	if asked := proofRequests(t, cap, es); len(asked) != 4 {
		t.Errorf("asked %v after the bundle certified", asked)
	}
}

func TestHonestRunSendsNoProofRequests(t *testing.T) {
	cap := &capture{}
	f := topFilter(t, cap)
	for n := types.SeqNum(1); n <= 20; n++ {
		now := types.Time(n) * replycert.ProofRetry
		f.Receive(200, order(n), now)
		for idx := 0; idx < 3; idx++ {
			f.Receive(top.Execution[idx], share(t, idx, entries(n)), now)
		}
		f.Tick(now + 1)
	}
	if f.Metrics.CertsCombined != 20 || f.Metrics.SharesRejected != 0 {
		t.Fatalf("combined = %d rejected = %d, want 20 and 0", f.Metrics.CertsCombined, f.Metrics.SharesRejected)
	}
	if n := cap.count(wire.TProofRequest, types.NoNode); n != 0 {
		t.Errorf("%d proof requests in an honest run, want 0", n)
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
	if f.Metrics.SharesRejected != 3 || len(proofRequests(t, cap, es)) != 0 {
		t.Errorf("rejected = %d after the real shares, want still 3 and no proof requested", f.Metrics.SharesRejected)
	}
}

func TestForgeryInSlotDoesNotDelayRealShare(t *testing.T) {
	es := entries(1)

	// Proof attached: a forgery reaches 101's slot over 101's own link (a
	// Byzantine network stack, a replayed corruption); 101's real share
	// arrives proven and displaces it, and the bundle certifies with the
	// next correct share.
	cap := &capture{}
	f := topFilter(t, cap)
	f.Receive(200, order(1), 0)
	f.Receive(101, lyingProven(t, 1, es), 0)
	f.Receive(101, provenShare(t, 1, es), 0)
	f.Receive(100, share(t, 0, es), 0)
	if len(certsDown(cap)) != 1 {
		t.Fatal("a forgery parked in the slot delayed the certificate")
	}
	if f.Metrics.SharesRejected != 1 {
		t.Errorf("rejected = %d, want 1 (the displaced forgery)", f.Metrics.SharesRejected)
	}

	// Proof requested: the real share arrives bare and cannot displace the
	// forgery unproven; the combination the forgery breaks asks 101, whose
	// proven answer displaces it.
	cap = &capture{}
	f = topFilter(t, cap)
	f.Receive(200, order(1), 0)
	f.Receive(101, lyingShare(t, 1, es), 0)
	f.Receive(101, share(t, 1, es), 0)
	f.Receive(100, share(t, 0, es), 0)
	if asked := proofRequests(t, cap, es); len(asked) != 2 {
		t.Fatalf("asked %v, want both holders", asked)
	}
	f.Receive(101, provenShare(t, 1, es), 0)
	if len(certsDown(cap)) != 1 {
		t.Fatal("the real share's proof did not clear the forgery")
	}
	if f.Metrics.SharesRejected != 2 {
		t.Errorf("rejected = %d, want 2 (the refused bare conflict, the displaced forgery)", f.Metrics.SharesRejected)
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
