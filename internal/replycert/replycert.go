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
	"errors"
	"fmt"

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
// correctness proof.
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
// unproven, because the combined signature is verified anyway and that alone
// decides whether a certificate leaves; proofs run only to name the culprits
// of a failed combination, or when a different share claims a held slot.
type Assembler struct {
	v       *Verifier
	pending map[types.Digest]*pendingBundle

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
	done    bool
}

// heldShare is one executor's threshold share and whether its proof has been
// checked yet.
type heldShare struct {
	sh     *threshold.SigShare
	proven bool
}

// NewAssembler returns an Assembler over the Verifier.
func NewAssembler(v *Verifier) *Assembler {
	return &Assembler{v: v, pending: make(map[types.Digest]*pendingBundle)}
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
		case held.proven || held.sh.Xi.Cmp(sh.Xi) == 0:
			return nil, nil
		default:
			// A different share must prove itself to displace an unproven
			// holder: a forgery parked in the slot can then never keep the
			// executor's real share out, and costs its sender one check.
			if err := a.proven(a.v.Threshold.VerifyShare(digest, sh)); err != nil {
				return nil, err
			}
			held.sh, held.proven = sh, true
			a.Rejected++
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

// combine certifies a bundle once it holds a quorum of shares. A combination
// that fails means some held share lied: the unproven ones are proven, the
// culprits evicted and counted, and the rest combined again when they still
// make a quorum. The error reports that from's own share was a culprit.
func (a *Assembler) combine(digest types.Digest, pb *pendingBundle, from types.NodeID) (*wire.ReplyCert, error) {
	for len(pb.shares) >= a.v.Quorum {
		shares := make([]*threshold.SigShare, 0, len(pb.shares))
		for _, held := range pb.shares {
			//lint:allow simdeterminism Combine selects and orders shares by ascending player index internally, so input order cannot reach the signature bytes (TestCombineSubsetIndependence)
			shares = append(shares, held.sh)
		}
		sig, err := a.v.Threshold.Combine(digest, shares)
		if err == nil {
			pb.done = true
			return &wire.ReplyCert{Entries: pb.entries, ThresholdSig: sig}, nil
		}
		evicted := false
		for id, held := range pb.shares {
			if !held.proven && a.proven(a.v.Threshold.VerifyShare(digest, held.sh)) != nil {
				delete(pb.shares, id)
				evicted = true
			}
			held.proven = true
		}
		if !evicted {
			return nil, err // every share proven yet no signature: not a share's fault
		}
	}
	if pb.shares[from] == nil {
		return nil, fmt.Errorf("%w: share of %v failed its proof", ErrInvalid, from)
	}
	return nil, nil
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
		}
	}
}

// Pending reports how many incomplete bundles are buffered.
func (a *Assembler) Pending() int { return len(a.pending) }
