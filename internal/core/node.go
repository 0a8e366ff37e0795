package core

import (
	"sort"

	"repro/internal/auth"
	"repro/internal/mqueue"
	"repro/internal/pbft"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// AgreementNode composes the agreement engine with its local message queue
// into one network node: protocol traffic drives the engine, reply traffic
// drives the queue, and ticks drive both.
type AgreementNode struct {
	ID     types.NodeID
	Engine *pbft.Replica
	Queue  *mqueue.Queue
}

// Deliver implements transport.Node.
func (n *AgreementNode) Deliver(from types.NodeID, data []byte, now types.Time) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case *wire.ExecReply:
		if m.Executor != from {
			// A share counts for the authenticated sender only.
			n.Queue.Metrics.SharesRejected++
			return
		}
		n.Queue.OnExecReply(m, now)
	case *wire.ReplyCert:
		n.Queue.OnReplyCert(m, now)
	default:
		n.Engine.Receive(from, msg, now)
	}
}

// Tick implements transport.Node.
func (n *AgreementNode) Tick(now types.Time) {
	n.Queue.Tick(now)
	n.Engine.Tick(now)
}

// Shutdown flushes and closes the engine's durable store (graceful-exit
// path); the TCP launcher invokes it before tearing the runtime down.
func (n *AgreementNode) Shutdown() { n.Engine.Shutdown() }

// CrashStop abandons the engine's store without flushing (crash tests).
func (n *AgreementNode) CrashStop() { n.Engine.CrashStop() }

// StorageErr surfaces the engine's first storage failure (fail-stop cause).
func (n *AgreementNode) StorageErr() error { return n.Engine.StorageErr() }

// directApp is the coupled-baseline application adapter: the agreement
// engine executes the state machine in place (Figure 1a) and every replica
// sends its reply share straight to the client, which collects f+1 matching
// shares. It reproduces the execution replica's exactly-once reply table so
// the two architectures answer retransmissions identically.
type directApp struct {
	id        types.NodeID
	top       *types.Topology
	app       sm.StateMachine
	replyAuth auth.Scheme
	send      transport.Sender
	replies   map[types.NodeID]*directReply
	lastOut   map[types.NodeID]*wire.ExecReply
}

type directReply struct {
	timestamp types.Timestamp
	body      []byte
}

func newDirectApp(id types.NodeID, top *types.Topology, app sm.StateMachine, replyAuth auth.Scheme, send transport.Sender) *directApp {
	return &directApp{
		id: id, top: top, app: app, replyAuth: replyAuth, send: send,
		replies: make(map[types.NodeID]*directReply),
		lastOut: make(map[types.NodeID]*wire.ExecReply),
	}
}

// executeOps applies one request body to the state machine. A multi-op
// envelope (client-side batching) is unpacked and each operation executed
// in envelope order, their replies packed into one matching reply envelope;
// any other body is a single opaque operation. This mirrors
// execnode.(*Replica).executeOps so the coupled baseline answers batched
// clients identically to the separated architecture.
func executeOps(app sm.StateMachine, body []byte, nd types.NonDet) []byte {
	ops, ok := wire.UnpackOps(body)
	if !ok {
		return app.Execute(body, nd)
	}
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		bodies[i] = app.Execute(op, nd)
	}
	return wire.PackOpReplies(bodies)
}

// Execute implements pbft.App.
func (a *directApp) Execute(v types.View, n types.SeqNum, nd types.NonDet, reqs []wire.Request, now types.Time) {
	entries := make([]wire.Reply, 0, len(reqs))
	for i := range reqs {
		req := &reqs[i]
		rs := a.replies[req.Client]
		if rs == nil {
			rs = &directReply{}
			a.replies[req.Client] = rs
		}
		if req.Timestamp > rs.timestamp {
			rs.body = executeOps(a.app, req.Op, nd)
			rs.timestamp = req.Timestamp
		}
		entries = append(entries, wire.Reply{
			View: v, Seq: n, Client: req.Client, Timestamp: rs.timestamp, Body: rs.body,
		})
	}
	if len(entries) == 0 {
		return
	}
	digest := wire.BundleDigest(entries)
	dests := make([]types.NodeID, 0, len(entries))
	for i := range entries {
		dests = append(dests, entries[i].Client)
	}
	att, err := a.replyAuth.Attest(auth.KindReply, digest, dests)
	if err != nil {
		return
	}
	out := &wire.ExecReply{Entries: entries, Executor: a.id, Att: att}
	data := wire.Marshal(out)
	sent := make(map[types.NodeID]bool)
	for i := range entries {
		c := entries[i].Client
		a.lastOut[c] = out
		if !sent[c] {
			sent[c] = true
			a.send(c, data)
		}
	}
}

// ResendReply implements pbft.App: answer retransmissions from the reply
// table.
func (a *directApp) ResendReply(req *wire.Request, now types.Time) bool {
	out := a.lastOut[req.Client]
	if out == nil {
		return false
	}
	for i := range out.Entries {
		e := &out.Entries[i]
		if e.Client == req.Client && e.Timestamp >= req.Timestamp {
			a.send(req.Client, wire.Marshal(out))
			return true
		}
	}
	return false
}

// Sync implements pbft.App: the state machine can checkpoint immediately.
func (a *directApp) Sync(n types.SeqNum, done func(types.Digest, []byte)) {
	payload := a.marshal()
	done(types.DigestBytes(payload), payload)
}

func (a *directApp) marshal() []byte {
	var w wire.Writer
	w.Bytes(a.app.Checkpoint())
	ids := make([]types.NodeID, 0, len(a.replies))
	for id := range a.replies {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Len(len(ids))
	for _, id := range ids {
		rs := a.replies[id]
		w.Node(id)
		w.TS(rs.timestamp)
		w.Bytes(rs.body)
	}
	return w.B
}

// Restore implements pbft.App.
func (a *directApp) Restore(n types.SeqNum, digest types.Digest, payload []byte) error {
	rd := wire.NewReader(payload)
	appState := rd.Bytes()
	k := rd.SliceLen()
	replies := make(map[types.NodeID]*directReply, k)
	for i := 0; i < k; i++ {
		id := rd.Node()
		replies[id] = &directReply{timestamp: rd.TS(), body: rd.Bytes()}
	}
	if rd.Err() != nil {
		return rd.Err()
	}
	if err := a.app.Restore(appState); err != nil {
		return err
	}
	a.replies = replies
	return nil
}

// Busy implements pbft.App: direct execution has no pipeline to fill.
func (a *directApp) Busy(now types.Time) bool { return false }
