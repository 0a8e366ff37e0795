package wire

import (
	"fmt"

	"repro/internal/auth"
	"repro/internal/types"
)

// MsgType discriminates message encodings on the wire.
type MsgType uint8

// Message type tags.
const (
	TRequest MsgType = iota + 1
	TPrePrepare
	TPrepare
	TCommit
	TAgreeCheckpoint
	TViewChange
	TNewView
	TOrder
	TExecReply
	TReplyCert
	TExecCheckpoint
	TFetchMissing
	TOrderProof
	TStableProof
	TCheckpointFetch
	TCheckpointData
)

func (t MsgType) String() string {
	switch t {
	case TRequest:
		return "REQUEST"
	case TPrePrepare:
		return "PRE-PREPARE"
	case TPrepare:
		return "PREPARE"
	case TCommit:
		return "COMMIT"
	case TAgreeCheckpoint:
		return "A-CHECKPOINT"
	case TViewChange:
		return "VIEW-CHANGE"
	case TNewView:
		return "NEW-VIEW"
	case TOrder:
		return "ORDER"
	case TExecReply:
		return "EXEC-REPLY"
	case TReplyCert:
		return "REPLY-CERT"
	case TExecCheckpoint:
		return "E-CHECKPOINT"
	case TFetchMissing:
		return "FETCH-MISSING"
	case TOrderProof:
		return "ORDER-PROOF"
	case TStableProof:
		return "STABLE-PROOF"
	case TCheckpointFetch:
		return "CKPT-FETCH"
	case TCheckpointData:
		return "CKPT-DATA"
	case TStatus:
		return "STATUS"
	case TCommitProof:
		return "COMMIT-PROOF"
	case TReadRequest:
		return "READ-REQUEST"
	case TReadReply:
		return "READ-REPLY"
	case TProofRequest:
		return "PROOF-REQUEST"
	default:
		return fmt.Sprintf("MSG(%d)", uint8(t))
	}
}

// Message is implemented by every protocol message.
type Message interface {
	Type() MsgType
	marshalTo(w *Writer)
	unmarshalFrom(r *Reader)
}

// Marshal frames m as one type byte followed by its body.
func Marshal(m Message) []byte {
	var w Writer
	w.U8(uint8(m.Type()))
	m.marshalTo(&w)
	return w.B
}

// Unmarshal decodes a framed message, rejecting trailing bytes.
func Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	var m Message
	switch MsgType(data[0]) {
	case TRequest:
		m = &Request{}
	case TPrePrepare:
		m = &PrePrepare{}
	case TPrepare:
		m = &Prepare{}
	case TCommit:
		m = &Commit{}
	case TAgreeCheckpoint:
		m = &AgreeCheckpoint{}
	case TViewChange:
		m = &ViewChange{}
	case TNewView:
		m = &NewView{}
	case TOrder:
		m = &Order{}
	case TExecReply:
		m = &ExecReply{}
	case TReplyCert:
		m = &ReplyCert{}
	case TExecCheckpoint:
		m = &ExecCheckpoint{}
	case TFetchMissing:
		m = &FetchMissing{}
	case TOrderProof:
		m = &OrderProof{}
	case TStableProof:
		m = &StableProof{}
	case TCheckpointFetch:
		m = &CheckpointFetch{}
	case TCheckpointData:
		m = &CheckpointData{}
	case TStatus:
		m = &Status{}
	case TCommitProof:
		m = &CommitProof{}
	case TReadRequest:
		m = &ReadRequest{}
	case TReadReply:
		m = &ReadReply{}
	case TProofRequest:
		m = &ProofRequest{}
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", data[0])
	}
	r := NewReader(data[1:])
	m.unmarshalFrom(r)
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", MsgType(data[0]), err)
	}
	return m, nil
}

// --- attestation encoding helpers ---------------------------------------

func putAtt(w *Writer, a auth.Attestation) {
	w.Node(a.Node)
	w.Bytes(a.Proof)
}

func getAtt(r *Reader) auth.Attestation {
	return auth.Attestation{Node: r.Node(), Proof: r.Bytes()}
}

func putAtts(w *Writer, as []auth.Attestation) {
	w.Len(len(as))
	for _, a := range as {
		putAtt(w, a)
	}
}

func getAtts(r *Reader) []auth.Attestation {
	n := r.SliceLen()
	if n == 0 {
		return nil
	}
	out := make([]auth.Attestation, n)
	for i := range out {
		out[i] = getAtt(r)
	}
	return out
}

// --- Request ---------------------------------------------------------------

// Request is a client's ⟨REQUEST, o, t, c⟩_{c,A,1} certificate (§3.1.1).
// Op may be an opaque sealed (encrypted) body in privacy-firewall
// deployments. ReplyTo designates the agreement node that should forward the
// reply; ReplyToAll asks all of them (used on retransmission).
type Request struct {
	Client     types.NodeID
	Timestamp  types.Timestamp
	Op         []byte
	ReplyTo    types.NodeID
	ReplyToAll bool
	Att        auth.Attestation
}

// Type implements Message.
func (m *Request) Type() MsgType { return TRequest }

// Digest names the request. It covers the semantic fields (client,
// timestamp, operation) but not reply routing, so a retransmission with a
// different ReplyTo is recognized as the same request.
func (m *Request) Digest() types.Digest {
	return digestOf(func(w *Writer) {
		w.Node(m.Client)
		w.TS(m.Timestamp)
		w.Bytes(m.Op)
	})
}

func (m *Request) marshalTo(w *Writer) {
	w.Node(m.Client)
	w.TS(m.Timestamp)
	w.Bytes(m.Op)
	w.Node(m.ReplyTo)
	w.Bool(m.ReplyToAll)
	putAtt(w, m.Att)
}

func (m *Request) unmarshalFrom(r *Reader) {
	m.Client = r.Node()
	m.Timestamp = r.TS()
	m.Op = r.Bytes()
	m.ReplyTo = r.Node()
	m.ReplyToAll = r.Bool()
	m.Att = getAtt(r)
}

func putRequests(w *Writer, reqs []Request) {
	w.Len(len(reqs))
	for i := range reqs {
		reqs[i].marshalTo(w)
	}
}

func getRequests(r *Reader) []Request {
	n := r.SliceLen()
	if n == 0 {
		return nil
	}
	out := make([]Request, n)
	for i := range out {
		out[i].unmarshalFrom(r)
	}
	return out
}

// BatchDigest names an ordered batch of requests: the digest of the
// concatenated request digests.
func BatchDigest(reqs []Request) types.Digest {
	return digestOf(func(w *Writer) {
		w.Len(len(reqs))
		for i := range reqs {
			w.Digest(reqs[i].Digest())
		}
	})
}

// OrderDigest binds a batch to its slot in the total order together with the
// agreed nondeterministic inputs. Pre-prepare, prepare, commit, and order
// attestations are all computed over this value (with distinct domain
// labels), so a primary cannot equivocate on the nondeterminism without
// breaking the certificate.
func OrderDigest(v types.View, n types.SeqNum, batch types.Digest, nd types.NonDet) types.Digest {
	return digestOf(func(w *Writer) {
		w.View(v)
		w.Seq(n)
		w.Digest(batch)
		w.TS(nd.Time)
		w.Digest(nd.Rand)
	})
}

// --- PBFT three-phase messages ----------------------------------------------

// PrePrepare is the primary's proposal binding a batch (with full request
// bodies) and nondeterministic inputs to sequence number Seq in View.
type PrePrepare struct {
	View     types.View
	Seq      types.SeqNum
	ND       types.NonDet
	Requests []Request
	Primary  types.NodeID
	Att      auth.Attestation // over OrderDigest, KindPrePrepare
}

// Type implements Message.
func (m *PrePrepare) Type() MsgType { return TPrePrepare }

// OrderDigest returns the digest this pre-prepare's attestation covers.
func (m *PrePrepare) OrderDigest() types.Digest {
	return OrderDigest(m.View, m.Seq, BatchDigest(m.Requests), m.ND)
}

func (m *PrePrepare) marshalTo(w *Writer) {
	w.View(m.View)
	w.Seq(m.Seq)
	w.TS(m.ND.Time)
	w.Digest(m.ND.Rand)
	putRequests(w, m.Requests)
	w.Node(m.Primary)
	putAtt(w, m.Att)
}

func (m *PrePrepare) unmarshalFrom(r *Reader) {
	m.View = r.View()
	m.Seq = r.Seq()
	m.ND.Time = r.TS()
	m.ND.Rand = r.Digest()
	m.Requests = getRequests(r)
	m.Primary = r.Node()
	m.Att = getAtt(r)
}

// Prepare is a backup's agreement to the primary's proposal.
type Prepare struct {
	View    types.View
	Seq     types.SeqNum
	OD      types.Digest // OrderDigest of the proposal
	Replica types.NodeID
	Att     auth.Attestation // over OD, KindPrepare
}

// Type implements Message.
func (m *Prepare) Type() MsgType { return TPrepare }

func (m *Prepare) marshalTo(w *Writer) {
	w.View(m.View)
	w.Seq(m.Seq)
	w.Digest(m.OD)
	w.Node(m.Replica)
	putAtt(w, m.Att)
}

func (m *Prepare) unmarshalFrom(r *Reader) {
	m.View = r.View()
	m.Seq = r.Seq()
	m.OD = r.Digest()
	m.Replica = r.Node()
	m.Att = getAtt(r)
}

// Commit is a replica's statement that the proposal prepared at 2f+1 nodes.
type Commit struct {
	View    types.View
	Seq     types.SeqNum
	OD      types.Digest
	Replica types.NodeID
	Att     auth.Attestation // over OD, KindCommit
}

// Type implements Message.
func (m *Commit) Type() MsgType { return TCommit }

func (m *Commit) marshalTo(w *Writer) {
	w.View(m.View)
	w.Seq(m.Seq)
	w.Digest(m.OD)
	w.Node(m.Replica)
	putAtt(w, m.Att)
}

func (m *Commit) unmarshalFrom(r *Reader) {
	m.View = r.View()
	m.Seq = r.Seq()
	m.OD = r.Digest()
	m.Replica = r.Node()
	m.Att = getAtt(r)
}

// AgreeCheckpoint is an agreement replica's signed digest of its local
// message-queue state after sequence Seq, used for log truncation and as
// evidence in view changes.
type AgreeCheckpoint struct {
	Seq     types.SeqNum
	State   types.Digest
	Replica types.NodeID
	Att     auth.Attestation // over CheckpointDigest, KindAgreeCheckpoint
}

// Type implements Message.
func (m *AgreeCheckpoint) Type() MsgType { return TAgreeCheckpoint }

// CheckpointDigest is the value checkpoint attestations cover.
func CheckpointDigest(n types.SeqNum, state types.Digest) types.Digest {
	return digestOf(func(w *Writer) {
		w.Seq(n)
		w.Digest(state)
	})
}

func (m *AgreeCheckpoint) marshalTo(w *Writer) {
	w.Seq(m.Seq)
	w.Digest(m.State)
	w.Node(m.Replica)
	putAtt(w, m.Att)
}

func (m *AgreeCheckpoint) unmarshalFrom(r *Reader) {
	m.Seq = r.Seq()
	m.State = r.Digest()
	m.Replica = r.Node()
	m.Att = getAtt(r)
}

// --- View change ------------------------------------------------------------

// PreparedEntry is one entry of a view change's P set: evidence that a batch
// prepared at this replica. It carries the primary's pre-prepare attestation
// and 2f matching prepare attestations, all signature-based and therefore
// checkable by any replica. Request bodies ride along so the new primary can
// re-propose without a separate fetch protocol.
type PreparedEntry struct {
	View       types.View
	Seq        types.SeqNum
	ND         types.NonDet
	Requests   []Request
	PrimaryAtt auth.Attestation
	Prepares   []auth.Attestation
}

// OrderDigest recomputes the digest the entry's attestations cover.
func (p *PreparedEntry) OrderDigest() types.Digest {
	return OrderDigest(p.View, p.Seq, BatchDigest(p.Requests), p.ND)
}

func (p *PreparedEntry) marshalTo(w *Writer) {
	w.View(p.View)
	w.Seq(p.Seq)
	w.TS(p.ND.Time)
	w.Digest(p.ND.Rand)
	putRequests(w, p.Requests)
	putAtt(w, p.PrimaryAtt)
	putAtts(w, p.Prepares)
}

func (p *PreparedEntry) unmarshalFrom(r *Reader) {
	p.View = r.View()
	p.Seq = r.Seq()
	p.ND.Time = r.TS()
	p.ND.Rand = r.Digest()
	p.Requests = getRequests(r)
	p.PrimaryAtt = getAtt(r)
	p.Prepares = getAtts(r)
}

// ViewChange announces that Replica wants to move to view NewView, carrying
// its latest stable checkpoint proof and its prepared-batch evidence.
type ViewChange struct {
	NewView    types.View
	LastStable types.SeqNum
	CkptState  types.Digest
	CkptProof  []AgreeCheckpoint
	Prepared   []PreparedEntry
	Replica    types.NodeID
	Att        auth.Attestation // signature over SigningDigest, KindViewChange
}

// Type implements Message.
func (m *ViewChange) Type() MsgType { return TViewChange }

func (m *ViewChange) marshalBody(w *Writer) {
	w.View(m.NewView)
	w.Seq(m.LastStable)
	w.Digest(m.CkptState)
	w.Len(len(m.CkptProof))
	for i := range m.CkptProof {
		m.CkptProof[i].marshalTo(w)
	}
	w.Len(len(m.Prepared))
	for i := range m.Prepared {
		m.Prepared[i].marshalTo(w)
	}
	w.Node(m.Replica)
}

// SigningDigest is the digest the view change's signature covers.
func (m *ViewChange) SigningDigest() types.Digest {
	return digestOf(func(w *Writer) {
		m.marshalBody(w)
	})
}

func (m *ViewChange) marshalTo(w *Writer) {
	m.marshalBody(w)
	putAtt(w, m.Att)
}

func (m *ViewChange) unmarshalFrom(r *Reader) {
	m.NewView = r.View()
	m.LastStable = r.Seq()
	m.CkptState = r.Digest()
	n := r.SliceLen()
	if n > 0 {
		m.CkptProof = make([]AgreeCheckpoint, n)
		for i := range m.CkptProof {
			m.CkptProof[i].unmarshalFrom(r)
		}
	}
	n = r.SliceLen()
	if n > 0 {
		m.Prepared = make([]PreparedEntry, n)
		for i := range m.Prepared {
			m.Prepared[i].unmarshalFrom(r)
		}
	}
	m.Replica = r.Node()
	m.Att = getAtt(r)
}

// NewView is the new primary's proof that view View may start: 2f+1 view
// changes and the pre-prepares re-issued for every sequence number that may
// have committed in earlier views.
type NewView struct {
	View        types.View
	ViewChanges []ViewChange
	PrePrepares []PrePrepare
	Primary     types.NodeID
	Att         auth.Attestation // signature over SigningDigest, KindNewView
}

// Type implements Message.
func (m *NewView) Type() MsgType { return TNewView }

func (m *NewView) marshalBody(w *Writer) {
	w.View(m.View)
	w.Len(len(m.ViewChanges))
	for i := range m.ViewChanges {
		m.ViewChanges[i].marshalTo(w)
	}
	w.Len(len(m.PrePrepares))
	for i := range m.PrePrepares {
		m.PrePrepares[i].marshalTo(w)
	}
	w.Node(m.Primary)
}

// SigningDigest is the digest the new-view signature covers.
func (m *NewView) SigningDigest() types.Digest {
	return digestOf(func(w *Writer) {
		m.marshalBody(w)
	})
}

func (m *NewView) marshalTo(w *Writer) {
	m.marshalBody(w)
	putAtt(w, m.Att)
}

func (m *NewView) unmarshalFrom(r *Reader) {
	m.View = r.View()
	n := r.SliceLen()
	if n > 0 {
		m.ViewChanges = make([]ViewChange, n)
		for i := range m.ViewChanges {
			m.ViewChanges[i].unmarshalFrom(r)
		}
	}
	n = r.SliceLen()
	if n > 0 {
		m.PrePrepares = make([]PrePrepare, n)
		for i := range m.PrePrepares {
			m.PrePrepares[i].unmarshalFrom(r)
		}
	}
	m.Primary = r.Node()
	m.Att = getAtt(r)
}

// --- Agreement -> execution ---------------------------------------------------

// Order carries one agreement replica's piece of the agreement certificate
// ⟨COMMIT, v, n, d, A⟩_{A,E,2f+1} plus the request bodies (§3.1.2). Executors
// and filters accumulate 2f+1 matching pieces from distinct replicas before
// acting.
type Order struct {
	View     types.View
	Seq      types.SeqNum
	ND       types.NonDet
	Requests []Request
	Replica  types.NodeID
	Att      auth.Attestation // over OrderDigest, KindOrder
}

// Type implements Message.
func (m *Order) Type() MsgType { return TOrder }

// OrderDigest returns the digest the order attestation covers.
func (m *Order) OrderDigest() types.Digest {
	return OrderDigest(m.View, m.Seq, BatchDigest(m.Requests), m.ND)
}

func (m *Order) marshalTo(w *Writer) {
	w.View(m.View)
	w.Seq(m.Seq)
	w.TS(m.ND.Time)
	w.Digest(m.ND.Rand)
	putRequests(w, m.Requests)
	w.Node(m.Replica)
	putAtt(w, m.Att)
}

func (m *Order) unmarshalFrom(r *Reader) {
	m.View = r.View()
	m.Seq = r.Seq()
	m.ND.Time = r.TS()
	m.ND.Rand = r.Digest()
	m.Requests = getRequests(r)
	m.Replica = r.Node()
	m.Att = getAtt(r)
}

// OrderProof is a complete agreement certificate for one sequence number:
// the batch plus 2f+1 attestations. Executors store these until checkpoint
// garbage collection and serve them to lagging peers (§3.3.1).
type OrderProof struct {
	View     types.View
	Seq      types.SeqNum
	ND       types.NonDet
	Requests []Request
	Atts     []auth.Attestation
}

// Type implements Message.
func (m *OrderProof) Type() MsgType { return TOrderProof }

// OrderDigest returns the digest the proof's attestations cover.
func (m *OrderProof) OrderDigest() types.Digest {
	return OrderDigest(m.View, m.Seq, BatchDigest(m.Requests), m.ND)
}

func (m *OrderProof) marshalTo(w *Writer) {
	w.View(m.View)
	w.Seq(m.Seq)
	w.TS(m.ND.Time)
	w.Digest(m.ND.Rand)
	putRequests(w, m.Requests)
	putAtts(w, m.Atts)
}

func (m *OrderProof) unmarshalFrom(r *Reader) {
	m.View = r.View()
	m.Seq = r.Seq()
	m.ND.Time = r.TS()
	m.ND.Rand = r.Digest()
	m.Requests = getRequests(r)
	m.Atts = getAtts(r)
}

// --- Replies ------------------------------------------------------------------

// Reply is a single client's reply entry ⟨REPLY, v, n, t, c, r⟩. Body may be
// sealed in privacy-firewall deployments.
type Reply struct {
	View      types.View
	Seq       types.SeqNum
	Client    types.NodeID
	Timestamp types.Timestamp
	Body      []byte
}

func (m *Reply) marshalTo(w *Writer) {
	w.View(m.View)
	w.Seq(m.Seq)
	w.Node(m.Client)
	w.TS(m.Timestamp)
	w.Bytes(m.Body)
}

func (m *Reply) unmarshalFrom(r *Reader) {
	m.View = r.View()
	m.Seq = r.Seq()
	m.Client = r.Node()
	m.Timestamp = r.TS()
	m.Body = r.Bytes()
}

// BundleDigest names a reply bundle: the digest of the canonical encoding of
// its entries. Threshold signatures and MAC/signature attestations over
// replies all cover this value, amortizing one expensive operation over the
// whole bundle (§5.3).
func BundleDigest(entries []Reply) types.Digest {
	return digestOf(func(w *Writer) {
		w.Len(len(entries))
		for i := range entries {
			entries[i].marshalTo(w)
		}
	})
}

// ExecReply is one executor's share of a reply certificate for a bundle of
// replies: either a threshold-signature share (Share) or a MAC/signature
// attestation (Att), depending on deployment mode.
type ExecReply struct {
	Entries  []Reply
	Executor types.NodeID
	Share    []byte           // threshold mode: marshaled signature share
	Att      auth.Attestation // MAC/sig mode: attestation over BundleDigest
}

// Type implements Message.
func (m *ExecReply) Type() MsgType { return TExecReply }

func (m *ExecReply) marshalTo(w *Writer) {
	w.Len(len(m.Entries))
	for i := range m.Entries {
		m.Entries[i].marshalTo(w)
	}
	w.Node(m.Executor)
	w.Bytes(m.Share)
	putAtt(w, m.Att)
}

func (m *ExecReply) unmarshalFrom(r *Reader) {
	n := r.SliceLen()
	if n > 0 {
		m.Entries = make([]Reply, n)
		for i := range m.Entries {
			m.Entries[i].unmarshalFrom(r)
		}
	}
	m.Executor = r.Node()
	m.Share = r.Bytes()
	m.Att = getAtt(r)
}

// TProofRequest tags ProofRequest, continuing the MsgType space after the
// read-path messages.
const TProofRequest MsgType = 21

// ProofRequest asks an executor for the correctness proof of its threshold
// share of one reply bundle. Executors send bare shares; a combiner (message
// queue or top-row filter) whose held shares failed to combine asks the
// executors whose shares it holds unproven. The executor answers the
// requester alone with an ExecReply carrying the proven share, or ignores
// the request if that bundle is no longer its last one for Client.
type ProofRequest struct {
	Bundle types.Digest // BundleDigest of the bundle
	Client types.NodeID // a client with an entry in the bundle
}

// Type implements Message.
func (m *ProofRequest) Type() MsgType { return TProofRequest }

func (m *ProofRequest) marshalTo(w *Writer) {
	w.Digest(m.Bundle)
	w.Node(m.Client)
}

func (m *ProofRequest) unmarshalFrom(r *Reader) {
	m.Bundle = r.Digest()
	m.Client = r.Node()
}

// ReplyCert is a complete reply certificate ⟨REPLY,...⟩_{E,c,g+1}: the bundle
// plus either one threshold signature over the bundle digest or g+1
// MAC/signature attestations.
type ReplyCert struct {
	Entries      []Reply
	ThresholdSig []byte
	Atts         []auth.Attestation
}

// Type implements Message.
func (m *ReplyCert) Type() MsgType { return TReplyCert }

// MaxSeq returns the highest sequence number in the bundle (0 if empty).
func (m *ReplyCert) MaxSeq() types.SeqNum {
	var max types.SeqNum
	for i := range m.Entries {
		if m.Entries[i].Seq > max {
			max = m.Entries[i].Seq
		}
	}
	return max
}

func (m *ReplyCert) marshalTo(w *Writer) {
	w.Len(len(m.Entries))
	for i := range m.Entries {
		m.Entries[i].marshalTo(w)
	}
	w.Bytes(m.ThresholdSig)
	putAtts(w, m.Atts)
}

func (m *ReplyCert) unmarshalFrom(r *Reader) {
	n := r.SliceLen()
	if n > 0 {
		m.Entries = make([]Reply, n)
		for i := range m.Entries {
			m.Entries[i].unmarshalFrom(r)
		}
	}
	m.ThresholdSig = r.Bytes()
	m.Atts = getAtts(r)
}

// --- Execution-cluster internal messages ---------------------------------------

// ExecCheckpoint is one executor's signed digest of its checkpoint at Seq
// (application state + reply table). g+1 of these form a proof of stability
// (§3.3.2).
type ExecCheckpoint struct {
	Seq      types.SeqNum
	State    types.Digest
	Executor types.NodeID
	Att      auth.Attestation // over CheckpointDigest, KindExecCheckpoint
}

// Type implements Message.
func (m *ExecCheckpoint) Type() MsgType { return TExecCheckpoint }

func (m *ExecCheckpoint) marshalTo(w *Writer) {
	w.Seq(m.Seq)
	w.Digest(m.State)
	w.Node(m.Executor)
	putAtt(w, m.Att)
}

func (m *ExecCheckpoint) unmarshalFrom(r *Reader) {
	m.Seq = r.Seq()
	m.State = r.Digest()
	m.Executor = r.Node()
	m.Att = getAtt(r)
}

// FetchMissing asks execution-cluster peers for the agreement certificate of
// a missing sequence number (§3.3.1).
type FetchMissing struct {
	Seq      types.SeqNum
	Executor types.NodeID
}

// Type implements Message.
func (m *FetchMissing) Type() MsgType { return TFetchMissing }

func (m *FetchMissing) marshalTo(w *Writer) {
	w.Seq(m.Seq)
	w.Node(m.Executor)
}

func (m *FetchMissing) unmarshalFrom(r *Reader) {
	m.Seq = r.Seq()
	m.Executor = r.Node()
}

// StableProof tells a lagging peer that a checkpoint newer than its missing
// sequence number is stable, carrying the g+1 attestations that prove it.
type StableProof struct {
	Seq   types.SeqNum
	State types.Digest
	Atts  []auth.Attestation
}

// Type implements Message.
func (m *StableProof) Type() MsgType { return TStableProof }

func (m *StableProof) marshalTo(w *Writer) {
	w.Seq(m.Seq)
	w.Digest(m.State)
	putAtts(w, m.Atts)
}

func (m *StableProof) unmarshalFrom(r *Reader) {
	m.Seq = r.Seq()
	m.State = r.Digest()
	m.Atts = getAtts(r)
}

// CheckpointFetch requests the full checkpoint payload for Seq.
type CheckpointFetch struct {
	Seq      types.SeqNum
	Executor types.NodeID
}

// Type implements Message.
func (m *CheckpointFetch) Type() MsgType { return TCheckpointFetch }

func (m *CheckpointFetch) marshalTo(w *Writer) {
	w.Seq(m.Seq)
	w.Node(m.Executor)
}

func (m *CheckpointFetch) unmarshalFrom(r *Reader) {
	m.Seq = r.Seq()
	m.Executor = r.Node()
}

// CheckpointData delivers a checkpoint payload. The receiver validates
// Payload against the digest in a stability proof before restoring.
type CheckpointData struct {
	Seq     types.SeqNum
	State   types.Digest
	Payload []byte
}

// Type implements Message.
func (m *CheckpointData) Type() MsgType { return TCheckpointData }

func (m *CheckpointData) marshalTo(w *Writer) {
	w.Seq(m.Seq)
	w.Digest(m.State)
	w.Bytes(m.Payload)
}

func (m *CheckpointData) unmarshalFrom(r *Reader) {
	m.Seq = r.Seq()
	m.State = r.Digest()
	m.Payload = r.Bytes()
}
