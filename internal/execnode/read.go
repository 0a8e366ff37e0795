package execnode

// Certified fast reads: the execution replicas answer read-only operations
// directly from applied state — no agreement round, no reply table, no
// checkpoint traffic. The client certifies the answer itself with g+1
// matching replies at or above its session floor (see internal/replycert's
// ReadAssembler). Serving a read is stateless for the replica: nothing here
// touches the protocol state driven by Receive's ordered-traffic handlers,
// which is what lets reads interleave with agreement traffic without
// perturbing it.

import (
	"repro/internal/auth"
	"repro/internal/obs"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Deterministic refusal bodies: replicas that refuse for the same reason
// produce byte-identical replies, so g+1 matching refusals certify that the
// operation must go through full agreement instead.
var (
	refusalNotReadOnly = []byte("read refused: operation is not read-only")
	refusalNoQuerier   = []byte("read refused: application cannot answer queries")
	refusalSealed      = []byte("read refused: sealed deployment")
	// refusalBehindFloor is per-replica (the watermark in the attested
	// digest differs), never certified: a reply below the requested floor
	// does not count toward the read quorum regardless of its body.
	refusalBehindFloor = []byte("read refused: applied state below requested floor")
)

// SetReadSender routes read replies through an alternate sender. The
// simulated transport uses it to keep read traffic on its auxiliary
// randomness plane, so serving reads cannot perturb the deterministic
// delivery schedule of agreement traffic. Defaults to the replica's normal
// sender.
func (r *Replica) SetReadSender(send transport.Sender) { r.readSend = send }

// onReadRequest answers one certified-read probe from applied state.
func (r *Replica) onReadRequest(m *wire.ReadRequest, now types.Time) {
	if r.storeErr != nil {
		return // fail-stop: an undurable replica serves nothing
	}
	role, _, ok := r.top.RoleOf(m.Client)
	if !ok || role != types.RoleClient || m.Att.Node != m.Client {
		return
	}
	if r.cfg.ReadAuth == nil || r.cfg.ReadAuth.Verify(auth.KindReadRequest, m.Digest(), m.Att) != nil {
		return
	}
	reply := &wire.ReadReply{
		Client:     m.Client,
		Nonce:      m.Nonce,
		AppliedSeq: r.maxN,
		Executor:   r.cfg.ID,
	}
	switch {
	case r.cfg.Seals != nil:
		// Sealed request bodies cannot be queried in plaintext (and the
		// privacy firewall severs the client↔exec channel anyway).
		reply.Refused = true
		reply.Body = refusalSealed
	case r.maxN < m.Floor:
		reply.Refused = true
		reply.Body = refusalBehindFloor
	default:
		body, ok := r.queryOps(m.Op)
		if !ok {
			reply.Refused = true
			reply.Body = refusalNotReadOnly
			if _, isQuerier := r.app.(sm.Querier); !isQuerier {
				reply.Body = refusalNoQuerier
			}
		} else {
			reply.Body = body
		}
	}
	// The answer is MAC'd for the asking client alone, in every reply mode:
	// only that client consumes it, and threshold shares cannot combine
	// across replies that differ in their watermark.
	att, err := r.cfg.ReadAuth.Attest(auth.KindReadReply, reply.Digest(), []types.NodeID{m.Client})
	if err != nil {
		return
	}
	reply.Att = att
	if reply.Refused {
		r.Metrics.ReadsRefused++
		r.om.readsRefused.Inc()
		r.span(now, obs.StageReadServe, r.maxN, "refused")
	} else {
		r.Metrics.ReadsServed++
		r.om.readsServed.Inc()
		r.span(now, obs.StageReadServe, r.maxN, "ok")
	}
	send := r.readSend
	if send == nil {
		send = r.send
	}
	send(m.Client, wire.Marshal(reply))
}

// queryOps evaluates one read-only request body against the application,
// operation by operation (see eachOp), so a batched body reads exactly like
// it would execute.
func (r *Replica) queryOps(body []byte) ([]byte, bool) {
	q, ok := r.app.(sm.Querier)
	if !ok {
		return nil, false
	}
	out, _, ok := eachOp(body, q.Query)
	return out, ok
}
