package execnode

// The coupled baseline (BASE, Figure 1a): a Replica built for an agreement
// replica's id is that replica's pbft.App. The engine delivers each batch in
// order and asks for a checkpoint payload at its own checkpoint boundaries,
// so the second-level protocol (order certificates, gap filling, execution
// checkpoints, the WAL) never runs; the engine's log makes the replica
// durable. Replies go to clients only (New enforces it).

import (
	"repro/internal/types"
	"repro/internal/wire"
)

// Execute implements pbft.App.
func (r *Replica) Execute(v types.View, n types.SeqNum, nd types.NonDet, reqs []wire.Request, now types.Time) {
	r.apply(v, n, nd, reqs, now)
}

// ResendReply implements pbft.App: a retransmitted request whose reply is
// in the client's last bundle share is answered by resending that share.
func (r *Replica) ResendReply(req *wire.Request, now types.Time) bool {
	out := r.lastOut[req.Client]
	if out == nil {
		return false
	}
	for i := range out.entries {
		if e := &out.entries[i]; e.Client == req.Client && e.Timestamp >= req.Timestamp {
			r.send(req.Client, out.data)
			return true
		}
	}
	return false
}

// Sync implements pbft.App: execution runs inline, so the checkpoint is
// ready at once.
func (r *Replica) Sync(n types.SeqNum, done func(types.Digest, []byte)) {
	payload := r.snapshot()
	done(types.DigestBytes(payload), payload)
}

// Restore implements pbft.App.
func (r *Replica) Restore(n types.SeqNum, digest types.Digest, payload []byte) error {
	if err := r.restoreCheckpoint(n, payload); err != nil {
		return err
	}
	r.maxN = n
	r.om.appliedSeq.Set(int64(n))
	return nil
}

// Busy implements pbft.App: inline execution has no pipeline to fill.
func (r *Replica) Busy(now types.Time) bool { return false }
