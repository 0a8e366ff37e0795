// Package checkpoint is the stable-checkpoint certificate protocol both
// clusters run: agreement replicas prove a checkpoint stable with 2f+1
// matching votes of 3f+1 (§3.2), execution replicas with g+1 of 2g+1
// (§3.3.2). Only the members, the quorum and the attestation domain differ,
// so one Tracker serves both and never asks which cluster it is in.
//
// A Tracker owns the vote table, quorum detection, the canonical stable
// certificate, certificate verification, and the local checkpoint payloads
// served to state-transferring members. It is sans-I/O: it returns what to
// send and reports when a checkpoint became stable; the caller keeps its
// payload format, persistence, log garbage collection and state-transfer
// trigger.
package checkpoint

import (
	"cmp"
	"slices"

	"repro/internal/auth"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wire"
)

// VotesPerMember bounds the vote table: each member's votes are kept for
// only its newest VotesPerMember sequence numbers above the stable
// checkpoint, so a Byzantine member flooding votes for distinct future
// sequence numbers evicts only its own. A correct member votes at most a
// window of checkpoints ahead of stability. A window bound would not do: a
// lagging replica legitimately learns votes far above its own window.
const VotesPerMember = 4

// Cert is a stable checkpoint certificate: a quorum of members' attestations
// over wire.CheckpointDigest(Seq, Digest). The Tracker keeps its stable
// certificate canonical — one attestation per member, sorted by node — so
// it serializes to the same bytes on every replica holding the same votes.
type Cert struct {
	Seq    types.SeqNum
	Digest types.Digest
	Atts   []auth.Attestation
}

type vote struct {
	seq    types.SeqNum
	digest types.Digest
	att    auth.Attestation
}

type payload struct {
	digest types.Digest
	data   []byte
}

// Tracker counts one cluster's checkpoint votes into stable certificates.
type Tracker struct {
	scheme  auth.TransferScheme
	kind    auth.Kind
	members []types.NodeID // sorted
	allowed map[types.NodeID]bool
	quorum  int

	votes  map[types.NodeID][]vote // per member, ascending seq
	stable Cert
	local  map[types.SeqNum]payload
}

// New builds a tracker for members, whose checkpoint votes scheme attests
// in domain kind; quorum matching votes make a checkpoint stable.
func New(scheme auth.TransferScheme, kind auth.Kind, members []types.NodeID, quorum int) *Tracker {
	t := &Tracker{
		scheme:  scheme,
		kind:    kind,
		members: slices.Sorted(slices.Values(members)),
		allowed: make(map[types.NodeID]bool, len(members)),
		quorum:  quorum,
		votes:   make(map[types.NodeID][]vote, len(members)),
		local:   make(map[types.SeqNum]payload),
	}
	for _, id := range members {
		t.allowed[id] = true
	}
	return t
}

// Stable returns the latest stable certificate (Seq 0 before the first).
func (t *Tracker) Stable() Cert { return t.stable }

// Attest signs this member's vote for checkpoint (n, digest), records it,
// and returns the attestation to broadcast. stable reports whether the vote
// completed a quorum.
func (t *Tracker) Attest(n types.SeqNum, digest types.Digest) (att auth.Attestation, stable bool, err error) {
	att, err = t.scheme.Attest(t.kind, wire.CheckpointDigest(n, digest), t.members)
	if err != nil {
		return att, false, err
	}
	return att, t.record(vote{seq: n, digest: digest, att: att}), nil
}

// Add verifies and records voter's vote for checkpoint (n, digest), and
// reports whether it made the checkpoint stable. Votes at or below the
// stable checkpoint, from non-members, or not attested by voter are dropped.
func (t *Tracker) Add(voter types.NodeID, n types.SeqNum, digest types.Digest, att auth.Attestation) bool {
	if n <= t.stable.Seq || att.Node != voter || !t.allowed[voter] ||
		t.scheme.Verify(t.kind, wire.CheckpointDigest(n, digest), att) != nil {
		return false
	}
	return t.record(vote{seq: n, digest: digest, att: att})
}

// record stores v among its member's newest votes and installs v's
// checkpoint once a quorum matches it.
func (t *Tracker) record(v vote) bool {
	id := v.att.Node
	if !t.allowed[id] || v.seq <= t.stable.Seq {
		return false
	}
	vs := t.votes[id]
	j, found := slices.BinarySearchFunc(vs, v.seq, func(w vote, n types.SeqNum) int { return cmp.Compare(w.seq, n) })
	switch {
	case found:
		vs[j] = v
	case len(vs) < VotesPerMember:
		vs = slices.Insert(vs, j, v)
	case j == 0:
		return false // older than every vote the member has pending
	default: // evict the member's oldest vote
		copy(vs, vs[1:j])
		vs[j-1] = v
	}
	t.votes[id] = vs
	var atts []auth.Attestation
	for _, m := range t.members {
		for _, w := range t.votes[m] {
			if w.seq == v.seq && w.digest == v.digest {
				atts = append(atts, w.att)
			}
		}
	}
	return len(atts) >= t.quorum && t.Install(Cert{Seq: v.seq, Digest: v.digest, Atts: atts})
}

// Verify reports whether c holds valid attestations from a quorum of
// distinct members over its checkpoint.
func (t *Tracker) Verify(c Cert) bool {
	cd := wire.CheckpointDigest(c.Seq, c.Digest)
	return auth.CountDistinct(t.scheme, t.kind, cd, c.Atts, t.allowed) >= t.quorum
}

// Install makes c, which the caller has verified, the stable checkpoint if
// it is newer, keeping only the first attestation of each member. Votes at
// or below it and kept payloads below it are released. It reports whether
// c was installed.
func (t *Tracker) Install(c Cert) bool {
	if c.Seq <= t.stable.Seq {
		return false
	}
	atts := slices.DeleteFunc(slices.Clone(c.Atts), func(a auth.Attestation) bool { return !t.allowed[a.Node] })
	slices.SortStableFunc(atts, func(a, b auth.Attestation) int { return cmp.Compare(a.Node, b.Node) })
	c.Atts = slices.CompactFunc(atts, func(a, b auth.Attestation) bool { return a.Node == b.Node })
	t.stable = c
	for id, vs := range t.votes {
		t.votes[id] = slices.DeleteFunc(vs, func(v vote) bool { return v.seq <= c.Seq })
	}
	for n, p := range t.local {
		if n < c.Seq || (n == c.Seq && p.digest != c.Digest) {
			delete(t.local, n)
		}
	}
	return true
}

// Keep stores this replica's payload for checkpoint (n, digest), to persist
// and to serve. A payload below the stable checkpoint, or at it with
// another digest, is not kept.
func (t *Tracker) Keep(n types.SeqNum, digest types.Digest, data []byte) {
	if n > t.stable.Seq || (n == t.stable.Seq && digest == t.stable.Digest) {
		t.local[n] = payload{digest: digest, data: data}
	}
}

// Local returns the payload kept for checkpoint n, or nil.
func (t *Tracker) Local(n types.SeqNum) []byte { return t.local[n].data }

// Serve answers a fetch with the encoded CheckpointData to send back to
// from, or nil. Only a member asking for itself is answered: a payload is
// the whole replicated state, client reply caches included.
func (t *Tracker) Serve(from types.NodeID, m *wire.CheckpointFetch) []byte {
	p, ok := t.local[m.Seq]
	if !ok || m.Executor != from || !t.allowed[from] {
		return nil
	}
	return wire.Marshal(&wire.CheckpointData{Seq: m.Seq, State: p.digest, Payload: p.data})
}

// Accept hands fetched data to restore, and keeps it for serving, only if
// it is the stable checkpoint's payload. It reports whether restore ran and
// succeeded.
func (t *Tracker) Accept(m *wire.CheckpointData, restore func(data []byte) error) bool {
	if m.Seq != t.stable.Seq || m.State != t.stable.Digest ||
		types.DigestBytes(m.Payload) != m.State || restore(m.Payload) != nil {
		return false
	}
	t.local[m.Seq] = payload{digest: m.State, data: m.Payload}
	return true
}

// Recover adopts the newest of the stored checkpoints cks (newest first)
// whose payload matches its digest, whose proof verifies — atts reads the
// attestations it holds for the checkpoint, nil if none — and which restore
// accepts. It returns the adopted sequence number, or 0.
func (t *Tracker) Recover(cks []storage.Checkpoint, atts func(storage.Checkpoint) []auth.Attestation, restore func(storage.Checkpoint) error) types.SeqNum {
	for _, ck := range cks {
		if types.DigestBytes(ck.Payload) != ck.Digest {
			continue
		}
		c := Cert{Seq: ck.Seq, Digest: ck.Digest, Atts: atts(ck)}
		if t.Verify(c) && restore(ck) == nil {
			t.Install(c)
			t.Keep(ck.Seq, ck.Digest, ck.Payload)
			return ck.Seq
		}
	}
	return 0
}

// Held returns the sequence number of every vote in the table.
func (t *Tracker) Held() []types.SeqNum {
	var seqs []types.SeqNum
	for _, m := range t.members {
		for _, v := range t.votes[m] {
			seqs = append(seqs, v.seq)
		}
	}
	return seqs
}
