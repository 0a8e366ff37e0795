package core

import (
	"repro/internal/mqueue"
	"repro/internal/pbft"
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
