// Package auth implements the paper's authentication certificates
// ⟨X⟩_{S,D,k}: proofs that k distinct nodes in a source set S vouched for a
// value X toward a destination set D (§2).
//
// Two of the paper's three certificate implementations live here:
//
//   - MAC authenticators (à la Castro & Liskov): an attestation is a vector
//     of HMAC-SHA256 values, one per destination, computed with pairwise
//     shared secrets. Cheap, but only each destination can verify its slot,
//     and proofs are not transferable to third parties outside D.
//   - Public-key signatures (Ed25519): universally verifiable and
//     transferable; used where certificates must convince third parties
//     (view changes, checkpoint proofs of stability).
//
// The third implementation, threshold signatures, has enough moving parts to
// warrant its own package (internal/threshold).
package auth

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sort"
	"sync"

	"repro/internal/types"
)

// Kind is a domain-separation label mixed into every attested digest so a
// proof for one protocol step can never be replayed as another.
type Kind uint8

// Attestation domains.
const (
	KindRequest Kind = iota + 1
	KindPrePrepare
	KindPrepare
	KindCommit
	KindAgreeCheckpoint
	KindViewChange
	KindNewView
	KindOrder // agreement replica's commit-certificate piece sent to executors
	KindReply
	KindExecCheckpoint
	KindReadRequest // client's certified-read probe to the execution replicas
	KindReadReply   // one executor's answer + applied watermark, MAC'd for the client
)

// Bind mixes the domain label into a digest. All attestations are computed
// over Bind(kind, digest), never over raw digests.
func Bind(kind Kind, d types.Digest) types.Digest {
	var buf [1 + types.DigestSize]byte
	buf[0] = byte(kind)
	copy(buf[1:], d[:])
	return types.DigestBytes(buf[:])
}

// Attestation is one node's proof over a bound digest. For MAC schemes the
// proof is a vector of per-destination MACs; for signature schemes it is an
// Ed25519 signature.
type Attestation struct {
	Node  types.NodeID
	Proof []byte
}

// Scheme produces and verifies attestations on behalf of one node.
//
// Attest creates this node's attestation over digest for the destination set
// dests (ignored by signature schemes). Verify checks an attestation received
// by this node.
type Scheme interface {
	Attest(kind Kind, digest types.Digest, dests []types.NodeID) (Attestation, error)
	Verify(kind Kind, digest types.Digest, att Attestation) error
}

// TransferScheme marks a Scheme whose attestations are transferable: any
// third party holding the public material can verify them, so they may sit
// inside certificates that travel beyond their original destination set
// (view changes, new views, checkpoint proofs of stability). MAC vectors
// are deliberately NOT transferable — only each destination can check its
// own slot — so MACScheme does not implement this interface, and any config
// field typed TransferScheme is a compile-time guarantee that MAC
// authenticators can never be wired into a transferable certificate.
type TransferScheme interface {
	Scheme
	// Transferable is a marker; implementations with third-party-verifiable
	// proofs return true.
	Transferable() bool
}

// Errors returned by Verify.
var (
	ErrBadMAC       = errors.New("auth: MAC verification failed")
	ErrNoSlot       = errors.New("auth: MAC vector has no slot for this verifier")
	ErrBadSignature = errors.New("auth: signature verification failed")
	ErrUnknownNode  = errors.New("auth: no key material for node")
	// ErrNonTransferable rejects an attempt to use MAC vectors for a
	// certificate kind that must convince third parties.
	ErrNonTransferable = errors.New("auth: certificate kind requires a transferable (signature) scheme, not MACs")
)

// transferableOnly lists the attestation domains whose certificates leave
// their destination set: view-change and new-view certificates are replayed
// to replicas that join a view later, and checkpoint-stability proofs ride
// inside view changes and state transfer. A MAC vector presented to a node
// that was not among the original destinations is unverifiable, so MACScheme
// refuses these kinds outright (defense in depth behind the TransferScheme
// type split).
func transferableOnly(kind Kind) bool {
	switch kind {
	case KindViewChange, KindNewView, KindAgreeCheckpoint, KindExecCheckpoint:
		return true
	}
	return false
}

// --- MAC authenticators ---------------------------------------------------

// KeyRing holds the pairwise secrets one node shares with every other node.
// Secrets are derived from a deployment master secret as
// HMAC(master, min(a,b) || max(a,b)); a real deployment would provision them
// out of band, but the derivation keeps key management out of the protocol's
// way without changing any message format.
type KeyRing struct {
	self    types.NodeID
	secrets map[types.NodeID][]byte
	// states pools initialized HMAC instances per peer: hmac.New runs the
	// two-block key schedule on every call, which dominates MAC cost for
	// 33-byte bound digests. The pools are populated lazily and are safe
	// for the concurrent verification workers.
	states map[types.NodeID]*sync.Pool
}

// NewKeyRing derives the pairwise secrets between self and each peer.
func NewKeyRing(master []byte, self types.NodeID, peers []types.NodeID) *KeyRing {
	kr := &KeyRing{
		self:    self,
		secrets: make(map[types.NodeID][]byte, len(peers)),
		states:  make(map[types.NodeID]*sync.Pool, len(peers)),
	}
	for _, p := range peers {
		if p == self {
			continue
		}
		secret := PairSecret(master, self, p)
		kr.secrets[p] = secret
		kr.states[p] = &sync.Pool{New: func() any { return hmac.New(sha256.New, secret) }}
	}
	return kr
}

// mac computes the truncated pairwise MAC toward peer, reusing a pooled
// HMAC state. ok is false when no secret is shared with peer.
func (kr *KeyRing) mac(peer types.NodeID, kind Kind, digest types.Digest, out []byte) (sum []byte, ok bool) {
	pool := kr.states[peer]
	if pool == nil {
		return nil, false
	}
	h := pool.Get().(hash.Hash)
	h.Reset()
	bound := Bind(kind, digest)
	h.Write(bound[:])
	sum = h.Sum(out[:0])[:macSize]
	pool.Put(h)
	return sum, true
}

// PairSecret derives the shared secret between nodes a and b.
func PairSecret(master []byte, a, b types.NodeID) []byte {
	if b < a {
		a, b = b, a
	}
	mac := hmac.New(sha256.New, master)
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(int32(a)))
	binary.BigEndian.PutUint32(buf[4:8], uint32(int32(b)))
	mac.Write(buf[:])
	return mac.Sum(nil)
}

// macSize is the truncated per-destination MAC length. Castro & Liskov use
// 10-byte MACs; we keep 16 for a comfortable security margin while staying
// far smaller than signatures.
const macSize = 16

// MACScheme implements Scheme with per-destination HMAC vectors.
type MACScheme struct {
	ring *KeyRing
}

// NewMACScheme returns a MAC-vector scheme over the given key ring.
func NewMACScheme(ring *KeyRing) *MACScheme { return &MACScheme{ring: ring} }

// Attest builds a MAC vector with one slot per destination, sorted by
// NodeID for determinism. The self-destination, if present, is skipped.
// Kinds whose certificates must be transferable are refused.
func (s *MACScheme) Attest(kind Kind, digest types.Digest, dests []types.NodeID) (Attestation, error) {
	if transferableOnly(kind) {
		return Attestation{}, fmt.Errorf("%w: kind %d", ErrNonTransferable, kind)
	}
	sorted := make([]types.NodeID, 0, len(dests))
	seen := make(map[types.NodeID]bool, len(dests))
	for _, d := range dests {
		if d == s.ring.self || seen[d] {
			continue
		}
		seen[d] = true
		sorted = append(sorted, d)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var scratch [sha256.Size]byte
	proof := make([]byte, 0, 4+len(sorted)*(4+macSize))
	proof = binary.BigEndian.AppendUint32(proof, uint32(len(sorted)))
	for _, d := range sorted {
		sum, ok := s.ring.mac(d, kind, digest, scratch[:])
		if !ok {
			return Attestation{}, fmt.Errorf("%w: %v", ErrUnknownNode, d)
		}
		proof = binary.BigEndian.AppendUint32(proof, uint32(int32(d)))
		proof = append(proof, sum...)
	}
	return Attestation{Node: s.ring.self, Proof: proof}, nil
}

// Verify locates this node's slot in the MAC vector and checks it.
func (s *MACScheme) Verify(kind Kind, digest types.Digest, att Attestation) error {
	if transferableOnly(kind) {
		return fmt.Errorf("%w: kind %d", ErrNonTransferable, kind)
	}
	if _, ok := s.ring.secrets[att.Node]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, att.Node)
	}
	p := att.Proof
	if len(p) < 4 {
		return ErrNoSlot
	}
	n := int(binary.BigEndian.Uint32(p[:4]))
	p = p[4:]
	if len(p) != n*(4+macSize) {
		return ErrNoSlot
	}
	var scratch [sha256.Size]byte
	want, _ := s.ring.mac(att.Node, kind, digest, scratch[:])
	for i := 0; i < n; i++ {
		slot := p[i*(4+macSize) : (i+1)*(4+macSize)]
		if types.NodeID(int32(binary.BigEndian.Uint32(slot[:4]))) != s.ring.self {
			continue
		}
		if hmac.Equal(slot[4:], want) {
			return nil
		}
		return ErrBadMAC
	}
	return ErrNoSlot
}

// --- Ed25519 signatures -----------------------------------------------------

// Directory maps every node to its Ed25519 public key.
type Directory struct {
	keys map[types.NodeID]ed25519.PublicKey
}

// NewDirectory builds a directory from a key table.
func NewDirectory(keys map[types.NodeID]ed25519.PublicKey) *Directory {
	cp := make(map[types.NodeID]ed25519.PublicKey, len(keys))
	for id, k := range keys {
		cp[id] = k
	}
	return &Directory{keys: cp}
}

// Add registers (or replaces) a node's public key.
func (d *Directory) Add(id types.NodeID, key ed25519.PublicKey) {
	if d.keys == nil {
		d.keys = make(map[types.NodeID]ed25519.PublicKey)
	}
	d.keys[id] = key
}

// SigScheme implements Scheme with Ed25519 signatures. Signatures are
// universally verifiable, so dests is ignored and proofs are transferable
// (required for view-change and checkpoint-stability certificates).
type SigScheme struct {
	self types.NodeID
	priv ed25519.PrivateKey
	dir  *Directory
}

// NewSigScheme returns a signature scheme for self.
func NewSigScheme(self types.NodeID, priv ed25519.PrivateKey, dir *Directory) *SigScheme {
	return &SigScheme{self: self, priv: priv, dir: dir}
}

// Attest signs the bound digest.
func (s *SigScheme) Attest(kind Kind, digest types.Digest, dests []types.NodeID) (Attestation, error) {
	bound := Bind(kind, digest)
	return Attestation{Node: s.self, Proof: ed25519.Sign(s.priv, bound[:])}, nil
}

// Verify checks the attestation against the signer's directory entry.
func (s *SigScheme) Verify(kind Kind, digest types.Digest, att Attestation) error {
	pub, ok := s.dir.keys[att.Node]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, att.Node)
	}
	bound := Bind(kind, digest)
	if !ed25519.Verify(pub, bound[:], att.Proof) {
		return ErrBadSignature
	}
	return nil
}

// Transferable marks Ed25519 proofs as third-party verifiable.
func (s *SigScheme) Transferable() bool { return true }

// SigScheme proofs may back transferable certificates; MAC vectors may not.
// The second assertion is load-bearing documentation: if MACScheme ever
// gained a Transferable method, the transferability split would silently
// widen, so auth_test.go pins *MACScheme's non-conformance at runtime too.
var _ TransferScheme = (*SigScheme)(nil)

// --- Quorum certificates -----------------------------------------------------

// Quorum accumulates attestations from distinct nodes over one (kind, digest)
// pair until a threshold is reached. The caller verifies attestations before
// adding them; Quorum only enforces distinctness and the count.
type Quorum struct {
	need int
	atts map[types.NodeID]Attestation
}

// NewQuorum returns an accumulator that completes after need distinct nodes.
func NewQuorum(need int) *Quorum {
	return &Quorum{need: need, atts: make(map[types.NodeID]Attestation, need)}
}

// Add records an attestation; duplicates from the same node are ignored.
// It reports whether the quorum is now complete.
func (q *Quorum) Add(att Attestation) bool {
	if _, dup := q.atts[att.Node]; !dup {
		q.atts[att.Node] = att
	}
	return q.Done()
}

// Done reports whether the quorum is complete.
func (q *Quorum) Done() bool { return len(q.atts) >= q.need }

// Count returns the number of distinct attestations collected.
func (q *Quorum) Count() int { return len(q.atts) }

// Attestations returns the collected attestations sorted by node, forming a
// canonical certificate.
func (q *Quorum) Attestations() []Attestation {
	out := make([]Attestation, 0, len(q.atts))
	for _, a := range q.atts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// CountDistinct reports how many distinct valid attestations over
// (kind, digest) appear in atts, verifying each with the scheme and
// requiring membership in the allowed set when allowed is non-nil.
// Only the first attestation from each node is considered, valid or not.
func CountDistinct(s Scheme, kind Kind, digest types.Digest, atts []Attestation, allowed map[types.NodeID]bool) int {
	seen := make(map[types.NodeID]bool, len(atts))
	count := 0
	for _, a := range atts {
		if seen[a.Node] || (allowed != nil && !allowed[a.Node]) {
			continue
		}
		seen[a.Node] = true
		if s.Verify(kind, digest, a) == nil {
			count++
		}
	}
	return count
}
