package pbft

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// cutWaitTest is a batch timer long enough that a batch closed by it is
// unmistakable next to the 50–200µs links.
const cutWaitTest = 20_000_000 // 20ms

// sentMsg is one message a watched node handed to the network.
type sentMsg struct {
	at  types.Time
	to  types.NodeID
	msg wire.Message
}

// watchSends records every message from sends, stamped with the virtual
// time it was sent.
func (c *cluster) watchSends(from types.NodeID) *[]sentMsg {
	var out []sentMsg
	c.net.Tap(func(src, to types.NodeID, data []byte) {
		if src != from {
			return
		}
		if msg, err := wire.Unmarshal(data); err == nil {
			out = append(out, sentMsg{at: c.net.Now(), to: to, msg: msg})
		}
	})
	return &out
}

// proposals returns the distinct PRE-PREPAREs among sent, in send order.
func proposals(sent []sentMsg) []sentMsg {
	var out []sentMsg
	seen := make(map[[2]uint64]bool)
	for _, s := range sent {
		if pp, ok := s.msg.(*wire.PrePrepare); ok {
			key := [2]uint64{uint64(pp.View), uint64(pp.Seq)}
			if !seen[key] {
				seen[key] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// intercept wraps a replica so a test can observe, hold or reorder what it
// is delivered; deliver returns false to withhold a message.
type intercept struct {
	node    transport.Node
	deliver func(from types.NodeID, msg wire.Message, data []byte, now types.Time) bool
}

func (w *intercept) Deliver(from types.NodeID, data []byte, now types.Time) {
	if msg, err := wire.Unmarshal(data); err == nil && !w.deliver(from, msg, data, now) {
		return
	}
	w.node.Deliver(from, data, now)
}

func (w *intercept) Tick(now types.Time) { w.node.Tick(now) }

// watchRequests records when each client request reaches id.
func (c *cluster) watchRequests(id types.NodeID) *[]types.Time {
	var at []types.Time
	c.net.Swap(id, &intercept{node: c.replicas[id], deliver: func(_ types.NodeID, msg wire.Message, _ []byte, now types.Time) bool {
		if _, ok := msg.(*wire.Request); ok {
			at = append(at, now)
		}
		return true
	}})
	return &at
}

func newCutCluster(t *testing.T, seed int64) *cluster {
	return newCluster(t, seed, func(cfg *Config) { cfg.BatchWait = cutWaitTest })
}

// runCut sends one request per listed client to the primary, runs until
// all execute, and returns the request arrival times and the proposals.
func runCut(t *testing.T, c *cluster, from ...types.NodeID) ([]types.Time, []sentMsg) {
	t.Helper()
	arrivals := c.watchRequests(0)
	sent := c.watchSends(0)
	for i, client := range from {
		c.sendTo(0, c.request(client, string(rune('a'+i))))
	}
	if !c.net.RunUntil(c.allExecuted(len(from)), types.Millisecond(1000)) {
		t.Fatal("requests never executed")
	}
	c.assertConsistentLogs()
	pps := proposals(*sent)
	if len(pps) != 1 || len(*arrivals) != len(from) {
		t.Fatalf("%d proposals for %d arrivals, want one batch of %d", len(pps), len(*arrivals), len(from))
	}
	if got := len(pps[0].msg.(*wire.PrePrepare).Requests); got != len(from) {
		t.Fatalf("batch holds %d requests, want %d", got, len(from))
	}
	return *arrivals, pps
}

// A request from every client in the topology closes the batch on the
// delivery of the last one: nothing else can join it.
func TestBatchClosesOnceEveryClientQueued(t *testing.T) {
	c := newCutCluster(t, 31)
	arrivals, pps := runCut(t, c, c.top.Clients...)
	last := arrivals[len(arrivals)-1]
	if pps[0].at != last {
		t.Fatalf("proposed at %v, want at the last client's arrival %v", pps[0].at, last)
	}
	if pps[0].at >= arrivals[0]+cutWaitTest {
		t.Fatalf("proposed at %v, after the batch timer (%v)", pps[0].at, arrivals[0]+cutWaitTest)
	}
}

// A batch some client has not joined still waits out BatchWait.
func TestBatchMissingClientWaits(t *testing.T) {
	c := newCutCluster(t, 32)
	arrivals, pps := runCut(t, c, 100, 101)
	if pps[0].at < arrivals[0]+cutWaitTest {
		t.Fatalf("2 of 3 clients proposed at %v, before the batch timer (%v)", pps[0].at, arrivals[0]+cutWaitTest)
	}
}

// Several requests from one client count as one client: three requests
// from two of three clients do not close the batch.
func TestBatchCountsDistinctClients(t *testing.T) {
	c := newCutCluster(t, 33)
	arrivals, pps := runCut(t, c, 100, 100, 101)
	if pps[0].at < arrivals[0]+cutWaitTest {
		t.Fatalf("two clients' three requests proposed at %v, before the batch timer (%v)", pps[0].at, arrivals[0]+cutWaitTest)
	}
}

// crashPrimaryWithWork crashes the view-0 primary after every client's
// request reached the backups, so the view-1 primary resubmits a request
// from every client when it installs the new view.
func crashPrimaryWithWork(c *cluster) {
	c.net.Crash(0)
	for _, client := range c.top.Clients {
		c.sendToAll(c.request(client, "vc"))
	}
}

// A new primary whose resubmitted requests cover every client proposes at
// once, in the same step that sends its NEW-VIEW.
func TestNewPrimaryProposesAtOnce(t *testing.T) {
	c := newCutCluster(t, 34)
	sent := c.watchSends(1)
	crashPrimaryWithWork(c)
	if !c.net.RunUntil(c.allExecuted(3, 0), types.Millisecond(3000)) {
		t.Fatal("requests never executed after the view change")
	}
	var nvAt types.Time = -1
	for _, s := range *sent {
		if _, ok := s.msg.(*wire.NewView); ok {
			nvAt = s.at
			break
		}
	}
	pps := proposals(*sent)
	if nvAt < 0 || len(pps) == 0 {
		t.Fatalf("new primary sent no NEW-VIEW (%v) or no proposal (%d)", nvAt, len(pps))
	}
	if pps[0].at != nvAt {
		t.Fatalf("first proposal at %v, want with the NEW-VIEW at %v", pps[0].at, nvAt)
	}
	if got := len(pps[0].msg.(*wire.PrePrepare).Requests); got != 3 {
		t.Fatalf("first proposal holds %d requests, want 3", got)
	}
	c.assertConsistentLogs()
}

// A backup still installing view v must keep the view-v PRE-PREPARE that
// overtook its NEW-VIEW. Dropped, the slot stalls: with the old primary
// crashed, the new primary needs both remaining backups' prepares, and
// nothing resends the proposal, so a second view change would follow.
func TestPrePrepareOvertakingNewViewIsKept(t *testing.T) {
	c := newCluster(t, 35, nil)
	var held [][2]any
	released := false
	c.net.Swap(3, &intercept{node: c.replicas[3], deliver: func(from types.NodeID, msg wire.Message, data []byte, now types.Time) bool {
		switch m := msg.(type) {
		case *wire.NewView:
			if !released {
				held = append(held, [2]any{from, data})
				return false
			}
		case *wire.PrePrepare:
			if !released && m.View > 0 {
				released = true
				c.replicas[3].Deliver(from, data, now)
				for _, h := range held {
					c.replicas[3].Deliver(h[0].(types.NodeID), h[1].([]byte), now)
				}
				return false
			}
		}
		return true
	}})
	crashPrimaryWithWork(c)
	if !c.net.RunUntil(c.allExecuted(3, 0), types.Millisecond(3000)) {
		t.Fatal("requests never executed after the view change")
	}
	if !released {
		t.Fatal("backup 3 never saw a new-view PRE-PREPARE; the reordering did not happen")
	}
	for _, id := range []types.NodeID{1, 2, 3} {
		r := c.replicas[id]
		if r.View() != 1 || r.Metrics.ViewChanges != 1 {
			t.Errorf("replica %v: view %d after %d view changes, want view 1 after one", id, r.View(), r.Metrics.ViewChanges)
		}
	}
	c.assertConsistentLogs()
}
