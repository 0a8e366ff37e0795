package auth

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

var master = []byte("test-master-secret")

func macSchemes(t *testing.T, ids ...types.NodeID) map[types.NodeID]*MACScheme {
	t.Helper()
	out := make(map[types.NodeID]*MACScheme, len(ids))
	for _, id := range ids {
		out[id] = NewMACScheme(NewKeyRing(master, id, ids))
	}
	return out
}

func TestPairSecretSymmetric(t *testing.T) {
	if string(PairSecret(master, 1, 2)) != string(PairSecret(master, 2, 1)) {
		t.Error("PairSecret is not symmetric")
	}
	if string(PairSecret(master, 1, 2)) == string(PairSecret(master, 1, 3)) {
		t.Error("PairSecret collides across pairs")
	}
}

func TestMACAttestVerify(t *testing.T) {
	s := macSchemes(t, 1, 2, 3, 4)
	d := types.DigestBytes([]byte("payload"))
	att, err := s[1].Attest(KindCommit, d, []types.NodeID{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if att.Node != 1 {
		t.Errorf("attestation node = %v, want 1", att.Node)
	}
	if err := s[2].Verify(KindCommit, d, att); err != nil {
		t.Errorf("node 2 verify: %v", err)
	}
	if err := s[3].Verify(KindCommit, d, att); err != nil {
		t.Errorf("node 3 verify: %v", err)
	}
	// Node 4 was not a destination: no slot.
	if err := s[4].Verify(KindCommit, d, att); err != ErrNoSlot {
		t.Errorf("node 4 verify = %v, want ErrNoSlot", err)
	}
}

func TestMACVerifyRejectsWrongDigestAndKind(t *testing.T) {
	s := macSchemes(t, 1, 2)
	d := types.DigestBytes([]byte("payload"))
	att, _ := s[1].Attest(KindCommit, d, []types.NodeID{2})
	if err := s[2].Verify(KindCommit, types.DigestBytes([]byte("other")), att); err != ErrBadMAC {
		t.Errorf("wrong digest: got %v, want ErrBadMAC", err)
	}
	if err := s[2].Verify(KindPrepare, d, att); err != ErrBadMAC {
		t.Errorf("wrong kind (domain separation): got %v, want ErrBadMAC", err)
	}
}

func TestMACVerifyRejectsForgedSender(t *testing.T) {
	s := macSchemes(t, 1, 2, 3)
	d := types.DigestBytes([]byte("payload"))
	att, _ := s[1].Attest(KindCommit, d, []types.NodeID{2})
	att.Node = 3 // node 1 pretends to be node 3
	if err := s[2].Verify(KindCommit, d, att); err == nil {
		t.Error("verify accepted attestation with forged sender")
	}
}

func TestMACVectorDeduplicatesAndSkipsSelf(t *testing.T) {
	s := macSchemes(t, 1, 2)
	d := types.DigestBytes([]byte("x"))
	att, err := s[1].Attest(KindReply, d, []types.NodeID{2, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s[2].Verify(KindReply, d, att); err != nil {
		t.Error(err)
	}
	// vector header(4) + one slot (4 + 16)
	if len(att.Proof) != 4+4+16 {
		t.Errorf("proof len = %d, want one deduplicated slot", len(att.Proof))
	}
}

// referenceMACVector is MACScheme.Attest's original encoding — a deduped,
// sorted copy of the destinations without self, one slot each — kept to pin
// the proof bytes.
func referenceMACVector(s *MACScheme, kind Kind, d types.Digest, dests []types.NodeID) []byte {
	seen := make(map[types.NodeID]bool)
	var sorted []types.NodeID
	for _, id := range dests {
		if id != s.ring.self && !seen[id] {
			seen[id] = true
			sorted = append(sorted, id)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var scratch [32]byte
	proof := binary.BigEndian.AppendUint32(nil, uint32(len(sorted)))
	for _, id := range sorted {
		sum, _ := s.ring.mac(id, kind, d, scratch[:])
		proof = binary.BigEndian.AppendUint32(proof, uint32(int32(id)))
		proof = append(proof, sum...)
	}
	return proof
}

func TestMACAttestMatchesReferenceEncoding(t *testing.T) {
	s := macSchemes(t, 1, 2, 3, 4, 5, 1000)
	d := types.DigestBytes([]byte("x"))
	for _, dests := range [][]types.NodeID{
		{2, 3, 4},          // sorted, unique
		{4, 2, 5, 3},       // shuffled
		{3, 2, 3, 4, 2, 2}, // duplicates
		{1, 2, 3, 4},       // sorted with the self slot
		{5, 1, 1000, 2, 1}, // shuffled, self repeated
		{1},                // self only
		{1000},             // one client
		nil,
	} {
		in := slices.Clone(dests)
		att, err := s[1].Attest(KindReply, d, dests)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceMACVector(s[1], KindReply, d, dests); !bytes.Equal(att.Proof, want) {
			t.Errorf("dests %v: proof %x, want %x", dests, att.Proof, want)
		}
		if !slices.Equal(dests, in) {
			t.Errorf("Attest reordered the caller's destinations: %v, was %v", dests, in)
		}
	}
}

func TestMACVerifyMalformedProof(t *testing.T) {
	s := macSchemes(t, 1, 2)
	d := types.DigestBytes([]byte("x"))
	for _, proof := range [][]byte{nil, {1}, {0, 0, 0, 5, 1, 2, 3}} {
		if err := s[2].Verify(KindReply, d, Attestation{Node: 1, Proof: proof}); err == nil {
			t.Errorf("verify accepted malformed proof %v", proof)
		}
	}
}

func sigSchemes(t *testing.T, ids ...types.NodeID) map[types.NodeID]*SigScheme {
	t.Helper()
	dir := NewDirectory(nil)
	privs := make(map[types.NodeID]ed25519.PrivateKey, len(ids))
	for _, id := range ids {
		pub, priv, err := ed25519.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		dir.Add(id, pub)
		privs[id] = priv
	}
	out := make(map[types.NodeID]*SigScheme, len(ids))
	for _, id := range ids {
		out[id] = NewSigScheme(id, privs[id], dir)
	}
	return out
}

func TestSigAttestVerify(t *testing.T) {
	s := sigSchemes(t, 1, 2, 3)
	d := types.DigestBytes([]byte("vc"))
	att, err := s[1].Attest(KindViewChange, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Signatures are universally verifiable and transferable.
	for _, v := range []types.NodeID{1, 2, 3} {
		if err := s[v].Verify(KindViewChange, d, att); err != nil {
			t.Errorf("node %v verify: %v", v, err)
		}
	}
	if err := s[2].Verify(KindNewView, d, att); err != ErrBadSignature {
		t.Errorf("kind confusion: got %v, want ErrBadSignature", err)
	}
	att.Node = 2
	if err := s[3].Verify(KindViewChange, d, att); err != ErrBadSignature {
		t.Errorf("forged sender: got %v, want ErrBadSignature", err)
	}
}

func TestSigVerifyUnknownNode(t *testing.T) {
	s := sigSchemes(t, 1)
	d := types.DigestBytes([]byte("z"))
	att, _ := s[1].Attest(KindRequest, d, nil)
	att.Node = 42
	if err := s[1].Verify(KindRequest, d, att); err == nil {
		t.Error("verify accepted attestation from unknown node")
	}
}

func TestQuorum(t *testing.T) {
	q := NewQuorum(3)
	if q.Add(Attestation{Node: 1}) {
		t.Error("quorum complete after 1")
	}
	if q.Add(Attestation{Node: 1}) {
		t.Error("duplicate node counted twice")
	}
	q.Add(Attestation{Node: 2})
	if !q.Add(Attestation{Node: 3}) {
		t.Error("quorum not complete after 3 distinct")
	}
	atts := q.Attestations()
	if len(atts) != 3 {
		t.Fatalf("attestations = %d, want 3", len(atts))
	}
	for i := 1; i < len(atts); i++ {
		if atts[i-1].Node >= atts[i].Node {
			t.Error("attestations not sorted by node")
		}
	}
}

func TestCountDistinct(t *testing.T) {
	sig := sigSchemes(t, 1, 2, 3, 4)
	d := types.DigestBytes([]byte("cert"))
	signed := func(from types.NodeID) Attestation {
		a, err := sig[from].Attest(KindCommit, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	atts := []Attestation{
		signed(1), signed(2), signed(3), signed(1), // 1 appears twice
		{Node: 4, Proof: []byte("junk")},
	}
	if got := CountDistinct(sig[1], KindCommit, d, atts, nil); got != 3 {
		t.Errorf("duplicate node and bogus proof: CountDistinct = %d, want 3", got)
	}
	if got := CountDistinct(sig[1], KindCommit, d, atts, map[types.NodeID]bool{1: true, 2: true}); got != 2 {
		t.Errorf("allowed set: CountDistinct = %d, want 2", got)
	}
}

// CountDistinct over MAC vectors: the first attestation from a node is the
// one that counts, valid or forged, and non-members are skipped.
func TestCountDistinctMACMix(t *testing.T) {
	s := macSchemes(t, 1, 2, 3, 4, 5)
	d := types.DigestBytes([]byte("count"))
	attest := func(from types.NodeID) Attestation {
		att, err := s[from].Attest(KindCommit, d, []types.NodeID{1, 2, 3, 4, 5})
		if err != nil {
			t.Fatal(err)
		}
		return att
	}
	forged := attest(3)
	forged.Proof = append([]byte(nil), forged.Proof...)
	for i := range forged.Proof { // breaks every receiver's slot
		forged.Proof[i] ^= 1
	}
	atts := []Attestation{
		attest(2), attest(2), // duplicate node
		attest(3), forged, // forged after a valid one from the same node
		attest(4),
		attest(5), // not in the allowed set below
	}
	allowed := map[types.NodeID]bool{2: true, 3: true, 4: true}
	if got := CountDistinct(s[1], KindCommit, d, atts, allowed); got != 3 {
		t.Errorf("allowed set: count = %d, want 3", got)
	}
	if got := CountDistinct(s[1], KindCommit, d, atts, nil); got != 4 {
		t.Errorf("nil allowed set: count = %d, want 4", got)
	}
	if got := CountDistinct(s[1], KindCommit, d, []Attestation{forged, attest(3)}, nil); got != 0 {
		t.Errorf("forged before valid from the same node: count = %d, want 0", got)
	}
}

func TestBindDomainSeparation(t *testing.T) {
	d := types.DigestBytes([]byte("m"))
	f := func(a, b uint8) bool {
		if a == b {
			return true
		}
		return Bind(Kind(a), d) != Bind(Kind(b), d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMACQuickDigests(t *testing.T) {
	s := macSchemes(t, 1, 2)
	f := func(payload []byte) bool {
		d := types.DigestBytes(payload)
		att, err := s[1].Attest(KindOrder, d, []types.NodeID{2})
		if err != nil {
			return false
		}
		return s[2].Verify(KindOrder, d, att) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
