package replycert

// Certified-read quorums. A read answered directly by the execution
// replicas is certified by g+1 matching answers — a correct majority of the
// 2g+1-replica cluster — computed from applied state at or above the
// client's session floor. Unlike write certificates there is no single
// bundle digest to attest: each replica attests its own answer together
// with its applied watermark, and the client matches on the answer content
// (wire.ReadReply.AnswerDigest) while enforcing the floor on the attested
// watermarks individually.
//
// Each answer is MAC'd with the key its executor shares with the asking
// client alone. No other executor and no other client holds that key, so
// g+1 valid answers still come from g+1 distinct executors; and since a
// read certificate is consumed only by the client that asked, it never has
// to convince a third party.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/auth"
	"repro/internal/types"
	"repro/internal/wire"
)

// ReadVerifier validates individual attested read replies.
type ReadVerifier struct {
	Quorum    int // g+1
	Executors map[types.NodeID]bool
	// Scheme is the client's half of the read hop: it attests the client's
	// probes (KindReadRequest) and verifies the executors' answers
	// (KindReadReply), in every reply mode. The system builds it from the
	// pairwise MAC keys the client shares with each executor.
	Scheme auth.Scheme
}

// NewReadVerifier builds a ReadVerifier for the topology's execution
// cluster.
func NewReadVerifier(top *types.Topology, scheme auth.Scheme) *ReadVerifier {
	ex := make(map[types.NodeID]bool, len(top.Execution))
	for _, id := range top.Execution {
		ex[id] = true
	}
	return &ReadVerifier{Quorum: top.ExecutionQuorum(), Executors: ex, Scheme: scheme}
}

// VerifyReadReply checks one read reply in isolation: executor membership,
// identity binding, and the attestation over the answer + watermark.
func (v *ReadVerifier) VerifyReadReply(m *wire.ReadReply) error {
	if !v.Executors[m.Executor] {
		return fmt.Errorf("%w: %v is not an executor", ErrInvalid, m.Executor)
	}
	if m.Att.Node != m.Executor {
		return fmt.Errorf("%w: attestation node mismatch", ErrInvalid)
	}
	if err := v.Scheme.Verify(auth.KindReadReply, m.Digest(), m.Att); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return nil
}

// ErrReadMismatch reports that every execution replica answered and no g+1
// of them agree at or above the floor: the read cannot certify as asked.
// The assembler's Hint suggests a floor to retry at; a retry that still
// mismatches should fall back to full agreement (Invoke).
var ErrReadMismatch = errors.New("replycert: read quorum mismatch")

// ReadResult is a certified read: g+1 distinct executors attested this
// answer from applied state at or above the floor.
type ReadResult struct {
	Body    []byte
	Refused bool
	// Seq is the certified watermark — the smallest applied watermark among
	// the matching replies. The matching set contains at least one correct
	// replica, so Seq never exceeds a correct replica's real watermark and
	// is safe to adopt as the new session floor.
	Seq types.SeqNum
}

// ReadAssembler accumulates attested read replies for one probe (client,
// nonce, floor) until g+1 match at or above the floor, or all 2g+1
// executors have answered without such a quorum.
type ReadAssembler struct {
	v      *ReadVerifier
	client types.NodeID
	nonce  types.Timestamp
	floor  types.SeqNum

	replies map[types.NodeID]*wire.ReadReply // first valid reply per executor
	done    bool
}

// NewReadAssembler starts assembling replies to one probe.
func NewReadAssembler(v *ReadVerifier, client types.NodeID, nonce types.Timestamp, floor types.SeqNum) *ReadAssembler {
	return &ReadAssembler{
		v:       v,
		client:  client,
		nonce:   nonce,
		floor:   floor,
		replies: make(map[types.NodeID]*wire.ReadReply),
	}
}

// Add records one executor's reply.
//
//   - (result, nil): the read certified exactly once.
//   - (nil, nil): still pending.
//   - (nil, ErrReadMismatch): every executor answered; no quorum at the
//     floor exists (consult Hint, then retry or fall back).
//   - (nil, other error): the reply was invalid and has been discarded.
func (a *ReadAssembler) Add(m *wire.ReadReply) (*ReadResult, error) {
	if a.done {
		return nil, nil
	}
	if m.Client != a.client || m.Nonce != a.nonce {
		return nil, fmt.Errorf("%w: reply answers a different probe", ErrInvalid)
	}
	if err := a.v.VerifyReadReply(m); err != nil {
		return nil, err
	}
	if _, dup := a.replies[m.Executor]; dup {
		// Equivocation or retransmission: the first valid reply stands.
		return nil, nil
	}
	a.replies[m.Executor] = m

	// Group eligible replies (at or above the floor) by answer content.
	counts := make(map[types.Digest]int)
	var woken *wire.ReadReply
	for _, r := range a.replies {
		if r.AppliedSeq < a.floor {
			continue
		}
		d := r.AnswerDigest()
		counts[d]++
		if counts[d] >= a.v.Quorum {
			woken = r
		}
	}
	if woken != nil {
		a.done = true
		res := &ReadResult{Body: woken.Body, Refused: woken.Refused, Seq: a.minMatching(woken.AnswerDigest())}
		return res, nil
	}
	if len(a.replies) >= len(a.v.Executors) {
		// Everyone answered; no g+1 agree at this floor. Definite.
		return nil, ErrReadMismatch
	}
	return nil, nil
}

// minMatching returns the smallest eligible watermark among replies whose
// answer matches d.
func (a *ReadAssembler) minMatching(d types.Digest) types.SeqNum {
	var min types.SeqNum
	first := true
	for _, r := range a.replies {
		if r.AppliedSeq < a.floor || r.AnswerDigest() != d {
			continue
		}
		if first || r.AppliedSeq < min {
			min = r.AppliedSeq
			first = false
		}
	}
	return min
}

// Hint suggests a floor for retrying a mismatched read: the (g+1)'th-highest
// applied watermark among the valid replies seen. At most g replies can
// carry Byzantine-inflated watermarks, so the hint never exceeds some
// correct replica's real watermark — a retry at this floor can always
// eventually certify once g+1 correct replicas reach it. Returns the probe's
// floor when fewer than g+1 replies have been seen.
func (a *ReadAssembler) Hint() types.SeqNum {
	if len(a.replies) < a.v.Quorum {
		return a.floor
	}
	seqs := make([]types.SeqNum, 0, len(a.replies))
	for _, r := range a.replies {
		seqs = append(seqs, r.AppliedSeq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	hint := seqs[a.v.Quorum-1]
	if hint < a.floor {
		return a.floor
	}
	return hint
}

// Replies reports how many distinct valid replies have been recorded.
func (a *ReadAssembler) Replies() int { return len(a.replies) }

// Done reports whether the read has certified.
func (a *ReadAssembler) Done() bool { return a.done }
