package checkpoint

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/auth"
	"repro/internal/types"
	"repro/internal/wire"
)

var members = []types.NodeID{0, 1, 2, 3}

// group holds one signing scheme per member plus an outsider (9), and a
// tracker for member 0 with quorum 3 (2f+1 of 3f+1, f = 1).
type group struct {
	schemes map[types.NodeID]*auth.SigScheme
	t       *Tracker
}

func newGroup(t *testing.T) *group {
	t.Helper()
	dir := auth.NewDirectory(nil)
	privs := make(map[types.NodeID]ed25519.PrivateKey)
	for _, id := range append(members, 9) {
		var seed [ed25519.SeedSize]byte
		binary.BigEndian.PutUint32(seed[:4], uint32(id)+1)
		privs[id] = ed25519.NewKeyFromSeed(seed[:])
		dir.Add(id, privs[id].Public().(ed25519.PublicKey))
	}
	g := &group{schemes: make(map[types.NodeID]*auth.SigScheme)}
	for id, priv := range privs {
		g.schemes[id] = auth.NewSigScheme(id, priv, dir)
	}
	g.t = New(g.schemes[0], auth.KindAgreeCheckpoint, members, 3)
	return g
}

func (g *group) att(t *testing.T, from types.NodeID, n types.SeqNum, d types.Digest) auth.Attestation {
	t.Helper()
	att, err := g.schemes[from].Attest(auth.KindAgreeCheckpoint, wire.CheckpointDigest(n, d), members)
	if err != nil {
		t.Fatal(err)
	}
	return att
}

// vote adds member from's vote and reports whether it made n stable.
func (g *group) vote(t *testing.T, from types.NodeID, n types.SeqNum, d types.Digest) bool {
	t.Helper()
	return g.t.Add(from, n, d, g.att(t, from, n, d))
}

func digest(s string) types.Digest { return types.DigestBytes([]byte(s)) }

func TestQuorumMakesCanonicalCertificate(t *testing.T) {
	g := newGroup(t)
	d := digest("state-8")
	if g.vote(t, 3, 8, d) || g.vote(t, 2, 8, digest("other")) || g.vote(t, 1, 8, d) {
		t.Fatal("stable before a quorum matched")
	}
	if _, stable, err := g.t.Attest(8, d); err != nil || !stable {
		t.Fatalf("own third matching vote: stable=%v err=%v", stable, err)
	}
	c := g.t.Stable()
	if c.Seq != 8 || c.Digest != d || len(c.Atts) != 3 {
		t.Fatalf("stable = seq %d, %d atts", c.Seq, len(c.Atts))
	}
	for i, want := range []types.NodeID{0, 1, 3} {
		if c.Atts[i].Node != want {
			t.Fatalf("attestation %d from %v, want %v (sorted by node)", i, c.Atts[i].Node, want)
		}
	}
	if !g.t.Verify(c) {
		t.Fatal("own certificate does not verify")
	}
	if len(g.t.Held()) != 0 {
		t.Fatalf("%d votes at or below the stable checkpoint survived", len(g.t.Held()))
	}
	if g.vote(t, 2, 8, d) || g.vote(t, 2, 4, d) {
		t.Fatal("vote at or below the stable checkpoint counted")
	}
}

func TestAddRejectsForeignAndForgedVotes(t *testing.T) {
	g := newGroup(t)
	d := digest("s")
	outsider := g.att(t, 9, 8, d)
	forged := g.att(t, 1, 8, d)
	forged.Node = 2 // 1's signature relabelled as 2's
	cases := []struct {
		name  string
		voter types.NodeID
		att   auth.Attestation
	}{
		{"non-member", 9, outsider},
		{"voter is not the attester", 2, g.att(t, 1, 8, d)},
		{"relabelled signature", 2, forged},
	}
	for _, tc := range cases {
		g.t.Add(tc.voter, 8, d, tc.att)
		if n := len(g.t.Held()); n != 0 {
			t.Fatalf("%s: %d votes held", tc.name, n)
		}
	}
}

func TestVerify(t *testing.T) {
	g := newGroup(t)
	d := digest("s")
	a1, a2, a3 := g.att(t, 1, 8, d), g.att(t, 2, 8, d), g.att(t, 3, 8, d)
	cases := []struct {
		name string
		c    Cert
		ok   bool
	}{
		{"quorum", Cert{8, d, []auth.Attestation{a3, a1, a2}}, true},
		{"below quorum", Cert{8, d, []auth.Attestation{a1, a2}}, false},
		{"repeated member", Cert{8, d, []auth.Attestation{a1, a2, a2}}, false},
		{"outsider fills quorum", Cert{8, d, []auth.Attestation{a1, a2, g.att(t, 9, 8, d)}}, false},
		{"other sequence number", Cert{16, d, []auth.Attestation{a1, a2, a3}}, false},
		{"other digest", Cert{8, digest("x"), []auth.Attestation{a1, a2, a3}}, false},
	}
	for _, tc := range cases {
		if got := g.t.Verify(tc.c); got != tc.ok {
			t.Errorf("%s: Verify = %v, want %v", tc.name, got, tc.ok)
		}
	}
	// Install keeps a canonical form of whatever verified.
	extra := Cert{8, d, []auth.Attestation{a3, a1, g.att(t, 9, 8, d), a2, a1}}
	if !g.t.Verify(extra) || !g.t.Install(extra) {
		t.Fatal("certificate with extra attestations not installed")
	}
	got := g.t.Stable().Atts
	if len(got) != 3 || got[0].Node != 1 || got[1].Node != 2 || got[2].Node != 3 {
		t.Fatalf("installed certificate not canonical: %v", got)
	}
	if g.t.Install(Cert{Seq: 8, Digest: d}) || g.t.Install(Cert{Seq: 4, Digest: d}) {
		t.Fatal("installed a certificate no newer than the stable one")
	}
}

// TestFloodingMemberIsBounded: one Byzantine member's validly signed votes
// for thousands of distinct future sequence numbers occupy only its own
// few slots, and a quorum at the newest sequence number still forms.
func TestFloodingMemberIsBounded(t *testing.T) {
	g := newGroup(t)
	for n := types.SeqNum(1); n <= 5000; n++ {
		g.vote(t, 3, 1000+n, digest("junk"))
	}
	if got, max := len(g.t.Held()), VotesPerMember*len(members); got > max {
		t.Fatalf("%d votes held after a flood, bound is %d", got, max)
	}
	d := digest("state-64")
	for n := types.SeqNum(8); n <= 64; n += 8 {
		dn := digest(string(rune(n)))
		if n == 64 {
			dn = d
		}
		g.vote(t, 1, n, dn)
		g.vote(t, 2, n, dn)
	}
	if _, stable, err := g.t.Attest(64, d); err != nil || !stable {
		t.Fatalf("quorum at the newest sequence number did not stabilize: stable=%v err=%v", stable, err)
	}
	if got := g.t.Stable(); got.Seq != 64 || got.Digest != d {
		t.Fatalf("stable = %d", got.Seq)
	}
}

func TestLocalPayloads(t *testing.T) {
	g := newGroup(t)
	p4, p8 := []byte("payload-4"), []byte("payload-8")
	d4, d8 := types.DigestBytes(p4), types.DigestBytes(p8)
	g.t.Keep(4, d4, p4)
	g.t.Keep(8, d8, p8)

	fetch := &wire.CheckpointFetch{Seq: 8, Executor: 1}
	if data := g.t.Serve(1, fetch); data == nil {
		t.Fatal("member's fetch not served")
	} else if m, err := wire.Unmarshal(data); err != nil || m.(*wire.CheckpointData).State != d8 {
		t.Fatalf("served %v, %v", m, err)
	}
	for _, tc := range []struct {
		name string
		from types.NodeID
		m    *wire.CheckpointFetch
	}{
		{"non-member", 9, &wire.CheckpointFetch{Seq: 8, Executor: 9}},
		{"asking for another member", 2, &wire.CheckpointFetch{Seq: 8, Executor: 1}},
		{"payload not held", 1, &wire.CheckpointFetch{Seq: 12, Executor: 1}},
	} {
		if g.t.Serve(tc.from, tc.m) != nil {
			t.Errorf("%s: served", tc.name)
		}
	}

	// Stability at 8 releases the payload below it and keeps its own.
	for _, id := range []types.NodeID{1, 2, 3} {
		g.vote(t, id, 8, d8)
	}
	if g.t.Local(4) != nil || g.t.Local(8) == nil {
		t.Fatal("stability did not release payloads below it, or dropped its own")
	}

	// Fetched data is admitted only for the stable checkpoint's digest.
	restored := 0
	restore := func([]byte) error { restored++; return nil }
	for _, m := range []*wire.CheckpointData{
		{Seq: 8, State: d4, Payload: p4},          // other digest
		{Seq: 8, State: d8, Payload: []byte("x")}, // payload does not hash to State
		{Seq: 4, State: d4, Payload: p4},          // not the stable checkpoint
	} {
		if g.t.Accept(m, restore) {
			t.Fatalf("accepted seq %d", m.Seq)
		}
	}
	if restored != 0 {
		t.Fatal("restore ran for refused data")
	}
	if g.t.Accept(&wire.CheckpointData{Seq: 8, State: d8, Payload: p8}, func([]byte) error { return errors.New("bad") }) {
		t.Fatal("accepted data whose restore failed")
	}
	if !g.t.Accept(&wire.CheckpointData{Seq: 8, State: d8, Payload: p8}, restore) || restored != 1 {
		t.Fatal("stable checkpoint's data refused")
	}
}
