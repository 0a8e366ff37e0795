package core

import (
	"testing"

	"repro/internal/apps/counter"
	"repro/internal/replycert"
	"repro/internal/sm"
	"repro/internal/types"
	"repro/internal/wire"
)

// clientWorld builds a standalone client over a captured sender, with the
// key material of a real deployment so certificates can be forged or made
// valid at will.
type clientWorld struct {
	t    *testing.T
	b    *Builder
	sent []struct {
		to  types.NodeID
		msg wire.Message
	}
	cl  *Client
	res *reply
}

// reply records the certified replies a client reports through its result
// callback.
type reply struct {
	bodies [][]byte
}

func recordReplies(cl *Client) *reply {
	r := &reply{}
	cl.SetOnResult(func(body []byte, _ types.SeqNum) { r.bodies = append(r.bodies, body) })
	return r
}

// arrived reports whether any reply completed.
func (r *reply) arrived() bool { return len(r.bodies) > 0 }

// last returns the most recent reply body.
func (r *reply) last() string { return string(r.bodies[len(r.bodies)-1]) }

func newClientWorld(t *testing.T, mutate func(*Options)) *clientWorld {
	t.Helper()
	opts := counterOpts(mutate)
	b, err := NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &clientWorld{t: t, b: b}
	cl, err := b.ClientNode(b.Top.Clients[0], func(to types.NodeID, data []byte) {
		m, err := wire.Unmarshal(data)
		if err != nil {
			t.Fatalf("client sent undecodable bytes: %v", err)
		}
		w.sent = append(w.sent, struct {
			to  types.NodeID
			msg wire.Message
		}{to, m})
	})
	if err != nil {
		t.Fatal(err)
	}
	w.cl = cl
	w.res = recordReplies(cl)
	return w
}

func (w *clientWorld) requestsTo(to types.NodeID) []*wire.Request {
	var out []*wire.Request
	for _, s := range w.sent {
		if r, ok := s.msg.(*wire.Request); ok && s.to == to {
			out = append(out, r)
		}
	}
	return out
}

func TestClientFirstSendGoesToPrimaryOnly(t *testing.T) {
	w := newClientWorld(t, func(o *Options) { o.ReplyMode = replycert.ModeQuorum })
	if err := w.cl.Submit([]byte("inc"), 0); err != nil {
		t.Fatal(err)
	}
	if len(w.requestsTo(w.b.Top.Agreement[0])) != 1 {
		t.Error("first transmission did not go to the believed primary")
	}
	for _, a := range w.b.Top.Agreement[1:] {
		if len(w.requestsTo(a)) != 0 {
			t.Errorf("first transmission leaked to backup %v", a)
		}
	}
}

func TestClientRetransmitsToAllWithBackoff(t *testing.T) {
	w := newClientWorld(t, func(o *Options) {
		o.ReplyMode = replycert.ModeQuorum
		o.ClientRetransmit = types.Millisecond(10)
	})
	if err := w.cl.Submit([]byte("inc"), 0); err != nil {
		t.Fatal(err)
	}
	w.cl.Tick(types.Millisecond(5)) // before deadline: nothing
	if len(w.requestsTo(w.b.Top.Agreement[1])) != 0 {
		t.Fatal("retransmitted before the deadline")
	}
	w.cl.Tick(types.Millisecond(11))
	for _, a := range w.b.Top.Agreement {
		reqs := w.requestsTo(a)
		last := reqs[len(reqs)-1]
		if !last.ReplyToAll {
			t.Errorf("retransmission to %v does not designate ALL", a)
		}
	}
	// Backoff doubles: next at +20ms after the first retransmission.
	count := len(w.requestsTo(w.b.Top.Agreement[1]))
	w.cl.Tick(types.Millisecond(15))
	if len(w.requestsTo(w.b.Top.Agreement[1])) != count {
		t.Error("retransmitted before the doubled deadline")
	}
	w.cl.Tick(types.Millisecond(31))
	if len(w.requestsTo(w.b.Top.Agreement[1])) != count+1 {
		t.Error("second retransmission missing")
	}
	if w.cl.Metrics.Retransmits != 2 {
		t.Errorf("retransmits = %d", w.cl.Metrics.Retransmits)
	}
}

func TestClientIgnoresWrongTimestampAndForgedCerts(t *testing.T) {
	w := newClientWorld(t, func(o *Options) { o.ReplyMode = replycert.ModeQuorum })
	if err := w.cl.Submit([]byte("inc"), 0); err != nil {
		t.Fatal(err)
	}
	// Forged cert (junk attestations).
	es := []wire.Reply{{Seq: 1, Client: w.b.Top.Clients[0], Timestamp: 1, Body: []byte("forged")}}
	forged := &wire.ReplyCert{Entries: es, Atts: nil}
	w.cl.Deliver(0, wire.Marshal(forged), 0)
	if w.res.arrived() {
		t.Fatal("client accepted an uncertified reply")
	}
	if w.cl.Metrics.BadReplies == 0 {
		t.Error("bad reply not counted")
	}
}

func TestClientSubmitWhileOutstandingPanics(t *testing.T) {
	w := newClientWorld(t, nil)
	if err := w.cl.Submit([]byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Submit did not panic")
		}
	}()
	w.cl.Submit([]byte("b"), 0) //nolint:errcheck // expected to panic
}

func TestClientTracksPrimaryFromReplies(t *testing.T) {
	// End-to-end via the simulated cluster: after a view change, the next
	// request's first transmission goes to the new primary.
	c := build(t, counterOpts(nil))
	if got := mustInvoke(t, c, 0, "inc"); got != "1" {
		t.Fatal("setup failed")
	}
	c.CrashAgreement(0)
	if got := mustInvoke(t, c, 0, "inc"); got != "2" {
		t.Fatal("view change recovery failed")
	}
	// The client should now aim at the current primary, not replica 0.
	view := types.View(0)
	for _, id := range c.Top.Agreement[1:] {
		if v := c.Engines[id].View(); v > view {
			view = v
		}
	}
	if view == 0 {
		t.Fatal("no view change happened")
	}
	if c.Clients[0].firstTo == c.Top.Agreement[0] {
		t.Error("client still targets the crashed primary for first transmissions")
	}
}

func TestLargerClusterF2G2(t *testing.T) {
	// f=2, g=2: 7 agreement + 5 execution replicas; quorum sizes scale.
	c := build(t, counterOpts(func(o *Options) {
		o.F = 2
		o.G = 2
	}))
	if len(c.Top.Agreement) != 7 || len(c.Top.Execution) != 5 {
		t.Fatalf("cluster sizes: %d/%d", len(c.Top.Agreement), len(c.Top.Execution))
	}
	for i := 1; i <= 3; i++ {
		if got := mustInvoke(t, c, 0, "inc"); got != fmtInt(i) {
			t.Fatalf("inc #%d = %q", i, got)
		}
	}
	// Tolerates g=2 executor crashes and f=2 agreement crashes (backups).
	c.CrashExec(0)
	c.CrashExec(1)
	c.CrashAgreement(5)
	c.CrashAgreement(6)
	if got := mustInvoke(t, c, 0, "inc"); got != "4" {
		t.Errorf("inc under maximum tolerated faults = %q", got)
	}
}

func fmtInt(i int) string { return string(rune('0' + i)) }

func TestCounterFactoryIsolation(t *testing.T) {
	// Each replica must get its own state machine instance; sharing one
	// would hide divergence bugs.
	opts := counterOpts(nil)
	seen := map[sm.StateMachine]bool{}
	orig := opts.App
	opts.App = func() sm.StateMachine {
		app := orig()
		if seen[app] {
			t.Fatal("App factory returned a shared instance")
		}
		seen[app] = true
		return app
	}
	if _, err := BuildSim(opts); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Errorf("expected 3 executor instances, got %d", len(seen))
	}
	_ = counter.New()
}
