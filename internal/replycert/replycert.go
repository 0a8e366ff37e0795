// Package replycert assembles and validates reply certificates
// ⟨REPLY,...⟩_{E,c,g+1} (§3.1.1): proofs that g+1 of the 2g+1 execution
// replicas — a correct majority — vouch for a bundle of replies.
//
// Two certificate forms exist, mirroring the paper's configurations:
//
//   - Quorum certificates: g+1 matching MAC/signature attestations over the
//     bundle digest (the Separate/MAC configurations of Figure 3).
//   - Threshold certificates: one Shoup RSA threshold signature combined
//     from g+1 shares (the Thresh and privacy-firewall configurations).
//     These are deterministic and membership-free, which the privacy
//     firewall relies on (§4.2.2).
//
// The same Assembler is used by agreement-side message queues, by clients
// receiving direct replies, and by top-row firewall filters.
package replycert

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/auth"
	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

// Mode selects the certificate form.
type Mode uint8

// Certificate modes.
const (
	ModeQuorum Mode = iota
	ModeThreshold
)

func (m Mode) String() string {
	if m == ModeThreshold {
		return "threshold"
	}
	return "quorum"
}

// Verifier validates complete reply certificates and individual shares.
type Verifier struct {
	Mode      Mode
	Quorum    int                  // g+1
	Executors map[types.NodeID]int // executor id → 1-based threshold share index
	Scheme    auth.Scheme          // quorum mode: verifies attestations addressed to this node
	Threshold *threshold.PublicKey // threshold mode
}

// NewVerifier builds a Verifier for the given topology. scheme may be nil in
// threshold mode; pub may be nil in quorum mode.
func NewVerifier(mode Mode, top *types.Topology, scheme auth.Scheme, pub *threshold.PublicKey) *Verifier {
	return NewVerifierFor(mode, top.ExecutionQuorum(), top.Execution, scheme, pub)
}

// NewVerifierFor builds a Verifier over an explicit member set and quorum.
// The coupled-baseline configuration uses it with the agreement cluster as
// the certifying set (f+1 matching replies out of 3f+1 replicas).
func NewVerifierFor(mode Mode, quorum int, members []types.NodeID, scheme auth.Scheme, pub *threshold.PublicKey) *Verifier {
	ex := make(map[types.NodeID]int, len(members))
	for i, id := range members {
		ex[id] = i + 1
	}
	return &Verifier{Mode: mode, Quorum: quorum, Executors: ex, Scheme: scheme, Threshold: pub}
}

// Errors.
var (
	ErrIncomplete = errors.New("replycert: certificate incomplete")
	ErrInvalid    = errors.New("replycert: certificate invalid")
)

// VerifyCert checks a complete certificate against the bundle it carries.
func (v *Verifier) VerifyCert(cert *wire.ReplyCert) error {
	if len(cert.Entries) == 0 {
		return fmt.Errorf("%w: empty bundle", ErrInvalid)
	}
	digest := wire.BundleDigest(cert.Entries)
	if v.Mode == ModeThreshold {
		if len(cert.ThresholdSig) == 0 {
			return ErrIncomplete
		}
		if err := v.Threshold.Verify(digest, cert.ThresholdSig); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		return nil
	}
	count := 0
	seen := make(map[types.NodeID]bool, len(cert.Atts))
	for _, a := range cert.Atts {
		if _, isExec := v.Executors[a.Node]; !isExec || seen[a.Node] {
			continue
		}
		if v.Scheme.Verify(auth.KindReply, digest, a) == nil {
			seen[a.Node] = true
			count++
		}
	}
	if count < v.Quorum {
		return fmt.Errorf("%w: %d/%d valid attestations", ErrIncomplete, count, v.Quorum)
	}
	return nil
}

// VerifyShare checks one executor's contribution in isolation. In quorum
// mode that is its attestation; in threshold mode, its signature share and
// correctness proof, so a bare share fails.
func (v *Verifier) VerifyShare(m *wire.ExecReply) error {
	sh, err := v.checkShare(m)
	if err != nil {
		return err
	}
	digest := wire.BundleDigest(m.Entries)
	if v.Mode == ModeThreshold {
		err = v.Threshold.VerifyShare(digest, sh)
	} else {
		err = v.Scheme.Verify(auth.KindReply, digest, m.Att)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return nil
}

// checkShare runs the checks that cost no cryptography: a non-empty bundle
// from a member executor whose attestation names it or, in threshold mode,
// whose canonically encoded share (returned decoded) carries its player index.
func (v *Verifier) checkShare(m *wire.ExecReply) (*threshold.SigShare, error) {
	if len(m.Entries) == 0 {
		return nil, fmt.Errorf("%w: empty bundle", ErrInvalid)
	}
	idx, isExec := v.Executors[m.Executor]
	if !isExec {
		return nil, fmt.Errorf("%w: %v is not an executor", ErrInvalid, m.Executor)
	}
	if v.Mode != ModeThreshold {
		if m.Att.Node != m.Executor {
			return nil, fmt.Errorf("%w: attestation node mismatch", ErrInvalid)
		}
		return nil, nil
	}
	sh, err := threshold.UnmarshalSigShare(m.Share)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if sh.Index != idx {
		return nil, fmt.Errorf("%w: share index %d does not match executor %v", ErrInvalid, sh.Index, m.Executor)
	}
	return sh, nil
}

// Assembler accumulates executor shares per bundle until a certificate can
// be produced; entries GC by sequence number.
//
// Add looks the bundle up before verifying anything: a share for a certified
// bundle, or from an executor already counted, costs no cryptography. Quorum
// mode holds only verified attestations. Threshold mode holds shares
// unproven: executors send bare shares, and the combined signature is
// verified anyway, which alone decides whether a certificate leaves. Only
// when a combination fails do proofs come in: Asks names the executors whose
// held shares are unproven, the combiner requests their proofs, and each
// proven share that arrives costs one check before the culprits are evicted
// and the rest recombined.
type Assembler struct {
	v       *Verifier
	pending map[types.Digest]*pendingBundle
	failing map[types.Digest]*pendingBundle // threshold bundles whose held shares failed to combine (Asks prunes it)

	// Rejected counts the shares refused on arrival, evicted after a failed
	// combination, or displaced by a proven share of the same executor.
	Rejected uint64

	onProof func() // tests: called per share proof or attestation check
}

type pendingBundle struct {
	entries []wire.Reply
	maxSeq  types.SeqNum
	atts    map[types.NodeID]auth.Attestation
	shares  map[types.NodeID]*heldShare
	failed  bool // the held shares failed to combine: only proven ones combine until a culprit leaves
	done    bool
}

// heldShare is one executor's threshold share, whether its proof has been
// checked, and when its executor was last asked for the proof.
type heldShare struct {
	sh      *threshold.SigShare
	proven  bool
	asked   bool
	askedAt types.Time
}

// ProofRetry is how long a combiner waits for a requested share proof
// before asking the executor again.
const ProofRetry types.Time = 20_000_000 // 20 ms

// ProofAsk is one proof request a combiner owes an executor.
type ProofAsk struct {
	Executor types.NodeID
	Req      wire.ProofRequest
}

// NewAssembler returns an Assembler over the Verifier.
func NewAssembler(v *Verifier) *Assembler {
	return &Assembler{
		v:       v,
		pending: make(map[types.Digest]*pendingBundle),
		failing: make(map[types.Digest]*pendingBundle),
	}
}

// proven counts one proof or attestation check and, if it failed, its share.
func (a *Assembler) proven(err error) error {
	if a.onProof != nil {
		a.onProof()
	}
	if err != nil {
		a.Rejected++
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return nil
}

// Add records one executor's share. When the bundle reaches its quorum, Add
// returns the completed certificate exactly once; otherwise it returns nil.
// Invalid shares are rejected with an error and counted in Rejected.
func (a *Assembler) Add(m *wire.ExecReply) (*wire.ReplyCert, error) {
	sh, err := a.v.checkShare(m)
	if err != nil {
		a.Rejected++
		return nil, err
	}
	digest := wire.BundleDigest(m.Entries)
	pb := a.pending[digest]
	if pb == nil {
		// Joins pending only once a share is stored in it.
		pb = &pendingBundle{
			entries: m.Entries,
			atts:    make(map[types.NodeID]auth.Attestation),
			shares:  make(map[types.NodeID]*heldShare),
		}
		for i := range m.Entries {
			if m.Entries[i].Seq > pb.maxSeq {
				pb.maxSeq = m.Entries[i].Seq
			}
		}
	}
	if pb.done {
		return nil, nil
	}
	if a.v.Mode == ModeThreshold {
		switch held := pb.shares[m.Executor]; {
		case held == nil:
			pb.shares[m.Executor] = &heldShare{sh: sh}
		case held.proven || !sh.HasProof() && held.sh.Xi.Cmp(sh.Xi) == 0:
			return nil, nil
		case !sh.HasProof():
			// A different share must prove itself to displace an unproven
			// holder: a forgery parked in the slot can then never keep the
			// executor's real share out.
			a.Rejected++
			return nil, fmt.Errorf("%w: unproven share of %v differs from the one held", ErrInvalid, m.Executor)
		default:
			// A proven share for an unproven slot (the answer to a proof
			// request, or a displacement) costs its one check: the same x_i
			// proves the holder, a different one displaces it.
			if err := a.proven(a.v.Threshold.VerifyShare(digest, sh)); err != nil {
				return nil, err
			}
			if held.sh.Xi.Cmp(sh.Xi) != 0 {
				a.Rejected++
				pb.failed = false // the displaced share may be what failed
			}
			held.sh, held.proven = sh, true
		}
		a.pending[digest] = pb
		return a.combine(digest, pb, m.Executor)
	}
	if _, held := pb.atts[m.Executor]; held {
		return nil, nil
	}
	if err := a.proven(a.v.Scheme.Verify(auth.KindReply, digest, m.Att)); err != nil {
		return nil, err
	}
	a.pending[digest] = pb
	pb.atts[m.Executor] = m.Att
	if len(pb.atts) < a.v.Quorum {
		return nil, nil
	}
	q := auth.NewQuorum(a.v.Quorum)
	for _, att := range pb.atts {
		q.Add(att)
	}
	pb.done = true
	return &wire.ReplyCert{Entries: pb.entries, Atts: q.Attestations()}, nil
}

// combine certifies a bundle once it holds a quorum of shares. The first
// quorum is combined without any proof checked. A failed combination means
// some held share lied: proofs that came with held shares are checked and
// their culprits evicted and counted, and the rest combined again once they
// make a quorum; unproven shares whose executors sent no proof are left to
// Asks, and until a culprit is evicted or displaced only proven shares
// combine. The error reports that from's own share was a culprit.
func (a *Assembler) combine(digest types.Digest, pb *pendingBundle, from types.NodeID) (*wire.ReplyCert, error) {
	for {
		if pb.failed {
			a.checkHeldProofs(digest, pb)
		}
		shares, proven := a.pick(pb)
		if shares == nil {
			break
		}
		sig, err := a.v.Threshold.Combine(digest, shares)
		if err == nil {
			pb.done = true
			return &wire.ReplyCert{Entries: pb.entries, ThresholdSig: sig}, nil
		}
		if proven {
			return nil, err // proven shares, yet no signature: not a share's fault
		}
		pb.failed = true
		a.failing[digest] = pb
	}
	if pb.shares[from] == nil {
		return nil, fmt.Errorf("%w: share of %v failed its proof", ErrInvalid, from)
	}
	return nil, nil
}

// pick returns exactly a quorum of held shares to combine next, and whether
// they are all proven: proven shares first, then unproven ones by ascending
// player index, the unproven ones only while the held set is not known to
// fail. It returns nil when no such quorum is held. Combine, given exactly
// K shares, checks no proof itself.
func (a *Assembler) pick(pb *pendingBundle) ([]*threshold.SigShare, bool) {
	proven := 0
	for _, h := range pb.shares {
		if h.proven {
			proven++
		}
	}
	if proven < a.v.Quorum && (pb.failed || len(pb.shares) < a.v.Quorum) {
		return nil, false
	}
	held := make([]*heldShare, 0, len(pb.shares))
	for _, h := range pb.shares {
		held = append(held, h)
	}
	sort.Slice(held, func(i, j int) bool {
		if held[i].proven != held[j].proven {
			return held[i].proven
		}
		return held[i].sh.Index < held[j].sh.Index
	})
	shares := make([]*threshold.SigShare, a.v.Quorum)
	for i := range shares {
		shares[i] = held[i].sh
	}
	return shares, proven >= a.v.Quorum
}

// checkHeldProofs checks every proof that came with a held, unproven share,
// evicting and counting the shares whose proof fails. An eviction removes a
// share the failed combination used, so the rest may combine optimistically
// again.
func (a *Assembler) checkHeldProofs(digest types.Digest, pb *pendingBundle) {
	for id, held := range pb.shares {
		if held.proven || !held.sh.HasProof() {
			continue
		}
		if a.proven(a.v.Threshold.VerifyShare(digest, held.sh)) != nil {
			delete(pb.shares, id)
			pb.failed = false
		} else {
			held.proven = true
		}
	}
}

// Asks returns the proof requests due at now: the executor of every
// unproven share held for a bundle whose held shares failed to combine is
// asked once, and again every ProofRetry until its proof arrives or the
// bundle is certified or collected. The requests are sorted, so the
// combiner's sends are deterministic. While no combination has failed it
// returns nil without looking at any bundle.
func (a *Assembler) Asks(now types.Time) []ProofAsk {
	if len(a.failing) == 0 {
		return nil
	}
	var asks []ProofAsk
	for digest, pb := range a.failing {
		if pb.done || !pb.failed {
			delete(a.failing, digest)
			continue
		}
		for id, held := range pb.shares {
			if held.proven || held.asked && now < held.askedAt+ProofRetry {
				continue
			}
			held.asked, held.askedAt = true, now
			asks = append(asks, ProofAsk{Executor: id, Req: wire.ProofRequest{Bundle: digest, Client: pb.entries[0].Client}})
		}
	}
	sort.Slice(asks, func(i, j int) bool {
		if c := bytes.Compare(asks[i].Req.Bundle[:], asks[j].Req.Bundle[:]); c != 0 {
			return c < 0
		}
		return asks[i].Executor < asks[j].Executor
	})
	return asks
}

// SplitOpReplies splits the certified reply body of a multi-op request
// (client-side batching) back into its per-op replies. The enclosing
// certificate vouches for the whole envelope, so each extracted reply
// carries the same g+1-correct-executor guarantee as a standalone one; the
// count must match the ops of the request envelope or the certificate does
// not answer the batch that was submitted.
func SplitOpReplies(body []byte, ops int) ([][]byte, error) {
	bodies, ok := wire.UnpackOpReplies(body)
	if !ok {
		return nil, fmt.Errorf("%w: certified reply is not a multi-op envelope", ErrInvalid)
	}
	if len(bodies) != ops {
		return nil, fmt.Errorf("%w: %d replies for %d batched ops", ErrInvalid, len(bodies), ops)
	}
	return bodies, nil
}

// GC drops pending bundles whose highest sequence number is at or below n.
func (a *Assembler) GC(n types.SeqNum) {
	for d, pb := range a.pending {
		if pb.maxSeq <= n {
			delete(a.pending, d)
			delete(a.failing, d)
		}
	}
}

// Pending reports how many incomplete bundles are buffered.
func (a *Assembler) Pending() int { return len(a.pending) }
