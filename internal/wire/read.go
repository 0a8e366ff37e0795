package wire

// Certified fast reads (ROADMAP: session-decoupled interactive read path).
//
// The paper's separation of agreement from execution means the 2g+1
// execution replicas hold the authoritative state: a client can ask them
// directly and accept any answer vouched for by g+1 of them — a correct
// majority — without an agreement round. ReadRequest/ReadReply are that
// probe and its answer. A ReadReply carries the replica's applied watermark
// (the sequence number of the last operation executed into the state the
// answer was computed from) so the client can enforce session consistency:
// replies below the session floor do not count toward the read quorum.
//
// Read traffic never enters the agreement protocol, the exactly-once reply
// tables, or the checkpoint pipeline; both messages are answered or
// discarded statelessly.

import (
	"repro/internal/auth"
	"repro/internal/types"
)

// Read-path message type tags, continuing the space after the catch-up
// messages (TStatus=17, TCommitProof=18).
const (
	TReadRequest MsgType = 19
	TReadReply   MsgType = 20
)

// ReadRequest is a client's certified-read probe ⟨READ, o, n, f, c⟩_{c,E,1},
// fanned to every execution replica. Nonce is drawn from the client's
// request-timestamp counter (shared with writes, so it is unique per
// client); Floor is the client's session watermark — the replica answers
// only from applied state at or above it.
type ReadRequest struct {
	Client types.NodeID
	Nonce  types.Timestamp
	Op     []byte
	Floor  types.SeqNum
	Att    auth.Attestation
}

// Type implements Message.
func (m *ReadRequest) Type() MsgType { return TReadRequest }

func (m *ReadRequest) marshalTo(w *Writer) {
	w.Node(m.Client)
	w.TS(m.Nonce)
	w.Bytes(m.Op)
	w.Seq(m.Floor)
	putAtt(w, m.Att)
}

func (m *ReadRequest) unmarshalFrom(r *Reader) {
	m.Client = r.Node()
	m.Nonce = r.TS()
	m.Op = r.Bytes()
	m.Floor = r.Seq()
	m.Att = getAtt(r)
}

// Digest covers the request fields the client attests (everything but the
// attestation itself).
func (m *ReadRequest) Digest() types.Digest {
	return digestOf(func(w *Writer) {
		w.Node(m.Client)
		w.TS(m.Nonce)
		w.Bytes(m.Op)
		w.Seq(m.Floor)
	})
}

// ReadReply is one execution replica's answer to a ReadRequest, computed
// from its applied state without entering agreement. AppliedSeq is the
// replica's applied watermark at answer time. Refused reports that the
// replica would not serve the read — the operation is not read-only, the
// application cannot answer queries, or the replica's watermark is still
// below the requested floor — with Body carrying a diagnostic. Refusals are
// deterministic, so g+1 matching refusals certify that the read must go
// through full agreement instead.
//
// The attestation is a MAC vector with one slot, for Client, in every reply
// mode: the reply is sent only to the client that asked and consumed only
// by it, so it never needs to convince a third party, and threshold
// signatures could not combine across replies that differ in their
// watermark.
type ReadReply struct {
	Client     types.NodeID
	Nonce      types.Timestamp
	AppliedSeq types.SeqNum
	Refused    bool
	Body       []byte
	Executor   types.NodeID
	Att        auth.Attestation
}

// Type implements Message.
func (m *ReadReply) Type() MsgType { return TReadReply }

func (m *ReadReply) marshalTo(w *Writer) {
	w.Node(m.Client)
	w.TS(m.Nonce)
	w.Seq(m.AppliedSeq)
	w.Bool(m.Refused)
	w.Bytes(m.Body)
	w.Node(m.Executor)
	putAtt(w, m.Att)
}

func (m *ReadReply) unmarshalFrom(r *Reader) {
	m.Client = r.Node()
	m.Nonce = r.TS()
	m.AppliedSeq = r.Seq()
	m.Refused = r.Bool()
	m.Body = r.Bytes()
	m.Executor = r.Node()
	m.Att = getAtt(r)
}

// Digest covers everything the executor attests: the answer and the watermark
// it was computed at, bound to the probe that asked.
func (m *ReadReply) Digest() types.Digest {
	return digestOf(func(w *Writer) {
		w.Node(m.Client)
		w.TS(m.Nonce)
		w.Seq(m.AppliedSeq)
		w.Bool(m.Refused)
		w.Bytes(m.Body)
		w.Node(m.Executor)
	})
}

// AnswerDigest covers only the answer content (refusal flag and body), the
// key replies are matched on for the g+1 read quorum: replicas at different
// watermarks still agree on the answer when the state they read is the same.
func (m *ReadReply) AnswerDigest() types.Digest {
	return digestOf(func(w *Writer) {
		w.Bool(m.Refused)
		w.Bytes(m.Body)
	})
}
