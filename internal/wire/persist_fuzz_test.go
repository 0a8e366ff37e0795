package wire

import (
	"bytes"
	"testing"

	"repro/internal/auth"
	"repro/internal/types"
)

// Fuzz targets for the durable voting-state encodings. The WAL's CRC
// framing catches random corruption, but a CRC-valid record can still hold
// arbitrary bytes (torn writes recomposed by later appends, hostile disks),
// so the decoders themselves must never panic and never accept an encoding
// a correct replica could not have produced — an accepted garbage record
// would become a phantom vote during recovery. CI replays the seed corpora
// under testdata/fuzz and runs short -fuzz smoke sessions.

func FuzzVoteRecordDecode(f *testing.F) {
	f.Add(EncodeVoteRecord(VoteRecord{View: 1, Seq: 42, OD: types.DigestBytes([]byte("od")), Phase: VotePrepare}))
	f.Add(EncodeVoteRecord(VoteRecord{View: 0, Seq: 1, Phase: VotePrePrepare}))
	f.Add([]byte{})
	f.Add([]byte{0xba, 0xdb, 0xad})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeVoteRecord(data)
		if err != nil {
			return
		}
		// Anything accepted must be byte-for-byte canonical: re-encoding
		// reproduces the input exactly, so no two distinct byte strings
		// alias the same vote and no slack bytes ride along.
		if !bytes.Equal(EncodeVoteRecord(v), data) {
			t.Fatalf("accepted non-canonical vote encoding %x", data)
		}
		if v.Phase < VotePrePrepare || v.Phase > VoteCommit {
			t.Fatalf("accepted out-of-range phase %d", v.Phase)
		}
	})
}

func FuzzViewRecordDecode(f *testing.F) {
	f.Add(EncodeViewRecord(ViewRecord{View: 3, InChange: true}))
	f.Add(EncodeViewRecord(ViewRecord{View: 0, InChange: false}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeViewRecord(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeViewRecord(v), data) {
			t.Fatalf("accepted non-canonical view encoding %x", data)
		}
	})
}

func FuzzPreparedRecordDecode(f *testing.F) {
	seed := &PreparedEntry{
		View: 1, Seq: 7,
		ND: types.NonDet{Time: 11, Rand: types.ComputeNonDetRand(7, 11)},
		Requests: []Request{{
			Client: 100, Timestamp: 3, Op: []byte("x"),
			Att: auth.Attestation{Node: 100, Proof: []byte("p")},
		}},
		PrimaryAtt: auth.Attestation{Node: 0, Proof: []byte("p0")},
		Prepares: []auth.Attestation{
			{Node: 1, Proof: []byte("p1")},
			{Node: 2, Proof: []byte("p2")},
		},
	}
	f.Add(EncodePreparedRecord(seed))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodePreparedRecord(data)
		if err != nil {
			return
		}
		// Variable-length contents (request bodies, attestation proofs)
		// may legitimately admit non-canonical envelope bytes, so the
		// check here is a fixed point: encode(decode(x)) must itself
		// decode to the identical structure — decoding cannot invent or
		// drop evidence.
		enc := EncodePreparedRecord(e)
		e2, err := DecodePreparedRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if !bytes.Equal(EncodePreparedRecord(e2), enc) {
			t.Fatal("encode/decode is not a fixed point")
		}
		if e2.OrderDigest() != e.OrderDigest() {
			t.Fatal("order digest changed across round trip")
		}
	})
}

func FuzzAgreeProofDecode(f *testing.F) {
	state := types.DigestBytes([]byte("state"))
	f.Add(EncodeAgreeProof([]AgreeCheckpoint{
		{Seq: 64, State: state, Replica: 0, Att: auth.Attestation{Node: 0, Proof: []byte("s0")}},
		{Seq: 64, State: state, Replica: 1, Att: auth.Attestation{Node: 1, Proof: []byte("s1")}},
		{Seq: 64, State: state, Replica: 3, Att: auth.Attestation{Node: 3, Proof: []byte("s3")}},
	}))
	f.Add(EncodeAgreeProof(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		votes, err := DecodeAgreeProof(data)
		if err != nil {
			return
		}
		// A checkpoint's stored proof is re-verified vote by vote at
		// recovery; decoding must neither invent nor drop a vote, so
		// anything accepted re-encodes to exactly the input.
		if !bytes.Equal(EncodeAgreeProof(votes), data) {
			t.Fatalf("accepted non-canonical agree-proof encoding %x", data)
		}
	})
}
