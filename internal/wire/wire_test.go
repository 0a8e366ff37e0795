package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/auth"
	"repro/internal/types"
)

func att(n types.NodeID, proof string) auth.Attestation {
	a := auth.Attestation{Node: n}
	if proof != "" {
		a.Proof = []byte(proof)
	}
	return a
}

func sampleRequest() Request {
	return Request{
		Client:     100,
		Timestamp:  42,
		Op:         []byte("put k v"),
		ReplyTo:    2,
		ReplyToAll: true,
		Att:        att(100, "mac-vector"),
	}
}

// roundTrip marshals m, unmarshals it, and returns the decoded message.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data := Marshal(m)
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m.Type(), err)
	}
	if !reflect.DeepEqual(m, out) {
		t.Fatalf("%v round trip mismatch:\n in: %#v\nout: %#v", m.Type(), m, out)
	}
	return out
}

// sampleMessages returns one populated message of every type Unmarshal
// knows, in MsgType order.
func sampleMessages() []Message {
	req := sampleRequest()
	nd := types.NonDet{Time: 7, Rand: types.DigestBytes([]byte("r"))}
	pp := PrePrepare{View: 1, Seq: 9, ND: nd, Requests: []Request{req}, Primary: 1, Att: att(1, "p")}
	vc := ViewChange{
		NewView:    3,
		LastStable: 128,
		CkptState:  types.DigestBytes([]byte("q")),
		CkptProof: []AgreeCheckpoint{
			{Seq: 128, State: types.DigestBytes([]byte("q")), Replica: 0, Att: att(0, "s0")},
			{Seq: 128, State: types.DigestBytes([]byte("q")), Replica: 1, Att: att(1, "s1")},
		},
		Prepared: []PreparedEntry{{
			View: 2, Seq: 130, ND: nd, Requests: []Request{req},
			PrimaryAtt: att(2, "pa"),
			Prepares:   []auth.Attestation{att(0, "x"), att(3, "y")},
		}},
		Replica: 2,
		Att:     att(2, "vc-sig"),
	}
	readReq, readRep := sampleReadRequest(), sampleReadReply()
	return []Message{
		&req,
		&pp,
		&Prepare{View: 1, Seq: 9, OD: pp.OrderDigest(), Replica: 2, Att: att(2, "pr")},
		&Commit{View: 1, Seq: 9, OD: pp.OrderDigest(), Replica: 3, Att: att(3, "cm")},
		&AgreeCheckpoint{Seq: 128, State: types.DigestBytes([]byte("st")), Replica: 1, Att: att(1, "ck")},
		&vc,
		&NewView{View: 3, ViewChanges: []ViewChange{vc}, PrePrepares: []PrePrepare{pp}, Primary: 3, Att: att(3, "nv")},
		&Order{View: 1, Seq: 9, ND: nd, Requests: []Request{req}, Replica: 0, Att: att(0, "or")},
		&ExecReply{
			Entries:  []Reply{{View: 1, Seq: 9, Client: 100, Timestamp: 42, Body: []byte("ok")}},
			Executor: 10, Share: []byte("tshare"), Att: att(10, "ra"),
		},
		&ReplyCert{
			Entries:      []Reply{{View: 1, Seq: 9, Client: 100, Timestamp: 42, Body: []byte("ok")}},
			ThresholdSig: []byte("tsig"),
			Atts:         []auth.Attestation{att(10, "m1"), att(11, "m2")},
		},
		&ExecCheckpoint{Seq: 64, State: types.DigestBytes([]byte("es")), Executor: 11, Att: att(11, "ec")},
		&FetchMissing{Seq: 5, Executor: 12},
		&OrderProof{View: 1, Seq: 9, ND: nd, Requests: []Request{req}, Atts: []auth.Attestation{att(0, "a"), att(1, "b"), att(2, "c")}},
		&StableProof{Seq: 64, State: types.DigestBytes([]byte("es")), Atts: []auth.Attestation{att(10, "u"), att(11, "v")}},
		&CheckpointFetch{Seq: 64, Executor: 12},
		&CheckpointData{Seq: 64, State: types.DigestBytes([]byte("es")), Payload: []byte("snapshot-bytes")},
		&Status{View: 4, LastExec: 100, LastStable: 64, Replica: 3},
		&CommitProof{PP: pp, Commits: []auth.Attestation{att(0, "c0"), att(1, "c1"), att(2, "c2")}},
		&readReq,
		&readRep,
		&ProofRequest{Bundle: types.DigestBytes([]byte("bundle")), Client: 1000},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := sampleMessages()
	for i, m := range msgs {
		if m.Type() != MsgType(i+1) {
			t.Fatalf("sample %d is a %v; want one message per type, in order", i, m.Type())
		}
		roundTrip(t, m)
	}
	if next := MsgType(len(msgs) + 1); next.String()[0] != 'M' {
		t.Fatalf("%v has no sample message", next)
	}
}

func TestRoundTripEmptySlices(t *testing.T) {
	roundTrip(t, &PrePrepare{View: 0, Seq: 1, Primary: 0, Att: att(0, "")})
	roundTrip(t, &ReplyCert{})
	roundTrip(t, &OrderProof{Seq: 3})
	roundTrip(t, &ViewChange{NewView: 1, Replica: 0, Att: att(0, "s")})
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil) succeeded")
	}
	if _, err := Unmarshal([]byte{0xFF}); err == nil {
		t.Error("Unmarshal(unknown type) succeeded")
	}
	// Truncated at every prefix length must error, never panic.
	data := Marshal(&PrePrepare{View: 1, Seq: 2, Requests: []Request{sampleRequest()}, Att: att(0, "z")})
	for i := 0; i < len(data); i++ {
		if _, err := Unmarshal(data[:i]); err == nil {
			t.Fatalf("Unmarshal of %d-byte prefix succeeded", i)
		}
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	data := Marshal(&FetchMissing{Seq: 1, Executor: 2})
	if _, err := Unmarshal(append(data, 0x00)); err == nil {
		t.Error("Unmarshal accepted trailing bytes")
	}
}

func TestUnmarshalRejectsHugeSliceLen(t *testing.T) {
	// A corrupted length prefix must not cause a giant allocation.
	var w Writer
	w.U8(uint8(TReplyCert))
	w.U32(0xFFFFFFFF) // entries length
	if _, err := Unmarshal(w.B); err == nil {
		t.Error("Unmarshal accepted absurd slice length")
	}
}

func TestRequestDigestSemantics(t *testing.T) {
	a := sampleRequest()
	b := a
	b.ReplyTo = 3
	b.ReplyToAll = false
	b.Att = att(100, "different")
	if a.Digest() != b.Digest() {
		t.Error("request digest should ignore routing and attestation")
	}
	c := a
	c.Timestamp++
	if a.Digest() == c.Digest() {
		t.Error("request digest should cover timestamp")
	}
	d := a
	d.Op = []byte("put k v2")
	if a.Digest() == d.Digest() {
		t.Error("request digest should cover op")
	}
}

func TestOrderDigestCoversNonDet(t *testing.T) {
	bd := types.DigestBytes([]byte("batch"))
	nd1 := types.NonDet{Time: 5, Rand: types.DigestBytes([]byte("a"))}
	nd2 := types.NonDet{Time: 6, Rand: types.DigestBytes([]byte("a"))}
	if OrderDigest(1, 2, bd, nd1) == OrderDigest(1, 2, bd, nd2) {
		t.Error("OrderDigest must cover the nondeterministic inputs")
	}
	if OrderDigest(1, 2, bd, nd1) == OrderDigest(2, 2, bd, nd1) {
		t.Error("OrderDigest must cover the view")
	}
}

func TestBatchDigestOrderSensitive(t *testing.T) {
	r1, r2 := sampleRequest(), sampleRequest()
	r2.Timestamp = 43
	if BatchDigest([]Request{r1, r2}) == BatchDigest([]Request{r2, r1}) {
		t.Error("BatchDigest must be order sensitive")
	}
	if BatchDigest(nil) != BatchDigest([]Request{}) {
		t.Error("BatchDigest of empty batches must agree")
	}
}

func TestBundleDigestCoversEntries(t *testing.T) {
	e1 := Reply{View: 1, Seq: 2, Client: 100, Timestamp: 3, Body: []byte("a")}
	e2 := e1
	e2.Body = []byte("b")
	if BundleDigest([]Reply{e1}) == BundleDigest([]Reply{e2}) {
		t.Error("BundleDigest must cover reply bodies")
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(client int32, ts uint64, op []byte, proof []byte, all bool) bool {
		m := &Request{
			Client:     types.NodeID(client),
			Timestamp:  types.Timestamp(ts),
			Op:         op,
			ReplyTo:    1,
			ReplyToAll: all,
			Att:        auth.Attestation{Node: types.NodeID(client), Proof: proof},
		}
		out, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		got := out.(*Request)
		return got.Client == m.Client && got.Timestamp == m.Timestamp &&
			bytes.Equal(got.Op, m.Op) && bytes.Equal(got.Att.Proof, m.Att.Proof) &&
			got.ReplyToAll == m.ReplyToAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickReaderNeverPanics(t *testing.T) {
	// Random garbage through Unmarshal: errors are fine, panics are not.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(256)
		b := make([]byte, n)
		rng.Read(b)
		if n > 0 {
			b[0] = byte(rng.Intn(20)) // bias toward valid type tags
		}
		_, _ = Unmarshal(b) //nolint:errcheck // must not panic
	}
}

func TestWriterReaderPrimitives(t *testing.T) {
	var w Writer
	w.U8(7)
	w.Bool(true)
	w.U32(1 << 20)
	w.U64(1 << 40)
	w.Node(-1)
	w.Digest(types.DigestBytes([]byte("d")))
	w.Bytes([]byte("hello"))
	w.Bytes(nil)

	r := NewReader(w.B)
	if r.U8() != 7 || !r.Bool() || r.U32() != 1<<20 || r.U64() != 1<<40 {
		t.Fatal("primitive mismatch")
	}
	if r.Node() != types.NodeID(-1) {
		t.Fatal("negative NodeID did not round trip")
	}
	if r.Digest() != types.DigestBytes([]byte("d")) {
		t.Fatal("digest mismatch")
	}
	if string(r.Bytes()) != "hello" {
		t.Fatal("bytes mismatch")
	}
	if r.Bytes() != nil {
		t.Fatal("nil bytes should decode as nil")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
	// Reading past the end sets a sticky error.
	if r.U64(); r.Err() == nil {
		t.Fatal("read past end did not error")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt := TRequest; mt <= TProofRequest; mt++ {
		if s := mt.String(); s == "" || s[0] == 'M' {
			t.Errorf("MsgType(%d).String() = %q", mt, s)
		}
	}
	if MsgType(99).String() != "MSG(99)" {
		t.Error("unknown MsgType string")
	}
}

func TestRoundTripCatchupMessages(t *testing.T) {
	pp := PrePrepare{View: 2, Seq: 7, ND: types.NonDet{Time: 3, Rand: types.DigestBytes([]byte("n"))},
		Requests: []Request{sampleRequest()}, Primary: 2, Att: att(2, "pp")}
	roundTrip(t, &Status{View: 4, LastExec: 100, LastStable: 64, Replica: 3})
	roundTrip(t, &CommitProof{PP: pp, Commits: []auth.Attestation{att(0, "c0"), att(1, "c1"), att(2, "c2")}})
	roundTrip(t, &CommitProof{PP: PrePrepare{View: 1, Seq: 1, Att: att(0, "x")}})
}

func TestViewChangeSigningDigestExcludesSignature(t *testing.T) {
	vc := ViewChange{NewView: 2, LastStable: 10, Replica: 1}
	d1 := vc.SigningDigest()
	vc.Att = att(1, "signature")
	if vc.SigningDigest() != d1 {
		t.Error("signing digest covers the signature itself")
	}
	vc.LastStable = 11
	if vc.SigningDigest() == d1 {
		t.Error("signing digest ignores LastStable")
	}
}

func TestNewViewSigningDigestCoversOSet(t *testing.T) {
	nv := NewView{View: 3, Primary: 3}
	d1 := nv.SigningDigest()
	nv.PrePrepares = []PrePrepare{{View: 3, Seq: 9}}
	if nv.SigningDigest() == d1 {
		t.Error("signing digest ignores the re-proposal set")
	}
}

func TestReplyCertMaxSeq(t *testing.T) {
	rc := ReplyCert{Entries: []Reply{{Seq: 3}, {Seq: 9}, {Seq: 5}}}
	if rc.MaxSeq() != 9 {
		t.Errorf("MaxSeq = %d", rc.MaxSeq())
	}
	if (&ReplyCert{}).MaxSeq() != 0 {
		t.Error("empty cert MaxSeq != 0")
	}
}
