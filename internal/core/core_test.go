package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/apps/counter"
	"repro/internal/replycert"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

const invokeTimeout = types.Time(5e9) // generous virtual-time budget

func counterOpts(mutate func(*Options)) Options {
	o := Options{
		Mode:               ModeSeparate,
		App:                func() sm.StateMachine { return counter.New() },
		CheckpointInterval: 8,
		WindowSize:         32,
		BatchSize:          4,
		ClientRetransmit:   types.Millisecond(80),
		RequestTimeout:     types.Millisecond(120),
	}
	if mutate != nil {
		mutate(&o)
	}
	return o
}

func build(t *testing.T, o Options) *Cluster {
	t.Helper()
	c, err := BuildSim(o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustInvoke(t *testing.T, c *Cluster, client int, op string) string {
	t.Helper()
	r, err := c.Invoke(client, []byte(op), invokeTimeout)
	if err != nil {
		t.Fatalf("Invoke(%q): %v", op, err)
	}
	return string(r)
}

// endToEnd exercises a configuration with a few counter operations.
func endToEnd(t *testing.T, o Options) *Cluster {
	t.Helper()
	c := build(t, o)
	if got := mustInvoke(t, c, 0, "inc"); got != "1" {
		t.Fatalf("inc = %q, want 1", got)
	}
	if got := mustInvoke(t, c, 0, "add 41"); got != "42" {
		t.Fatalf("add 41 = %q, want 42", got)
	}
	if got := mustInvoke(t, c, 0, "get"); got != "42" {
		t.Fatalf("get = %q, want 42", got)
	}
	return c
}

func TestSeparateMACQuorum(t *testing.T) {
	endToEnd(t, counterOpts(func(o *Options) {
		o.MACRequests = true
		o.MACOrders = true
		o.ReplyMode = replycert.ModeQuorum
	}))
}

func TestSeparateSignatures(t *testing.T) {
	endToEnd(t, counterOpts(func(o *Options) {
		o.ReplyMode = replycert.ModeQuorum
	}))
}

func TestSeparateThreshold(t *testing.T) {
	endToEnd(t, counterOpts(func(o *Options) {
		o.ReplyMode = replycert.ModeThreshold
	}))
}

func TestSeparateDirectReply(t *testing.T) {
	endToEnd(t, counterOpts(func(o *Options) {
		o.ReplyMode = replycert.ModeQuorum
		o.DirectReply = true
	}))
}

func TestBASEBaseline(t *testing.T) {
	c := endToEnd(t, counterOpts(func(o *Options) {
		o.Mode = ModeBASE
	}))
	if len(c.Execs) != 0 {
		t.Error("BASE mode built execution replicas")
	}
}

func TestFirewallEndToEnd(t *testing.T) {
	c := endToEnd(t, counterOpts(func(o *Options) {
		o.Mode = ModeFirewall
	}))
	if len(c.Filters) != 4 {
		t.Fatalf("expected a 2x2 filter grid, got %d filters", len(c.Filters))
	}
	// Replies must have flowed through filters, not around them.
	forwarded := uint64(0)
	for _, f := range c.Filters {
		forwarded += f.Metrics.ForwardedDown
	}
	if forwarded == 0 {
		t.Error("no filter ever forwarded a reply; wiring is broken")
	}
}

func TestMultipleClientsInterleaved(t *testing.T) {
	c := build(t, counterOpts(func(o *Options) {
		o.Clients = 3
	}))
	// Interleave increments from three clients; final count must be 9.
	for round := 0; round < 3; round++ {
		for cl := 0; cl < 3; cl++ {
			mustInvoke(t, c, cl, "inc")
		}
	}
	if got := mustInvoke(t, c, 0, "get"); got != "9" {
		t.Errorf("final count = %q, want 9", got)
	}
	// All executor replicas converged on the same state.
	for id, app := range c.ExecApps {
		if v := app.(*counter.Counter).Value(); v != 9 {
			t.Errorf("executor %v state = %d, want 9", id, v)
		}
	}
}

// hostedApps makes o's App factory record every counter it builds, in
// build order: the execution replicas' or, in BASE mode, the agreement
// replicas' own.
func hostedApps(o *Options) *[]*counter.Counter {
	apps := new([]*counter.Counter)
	o.App = func() sm.StateMachine {
		c := counter.New()
		*apps = append(*apps, c)
		return c
	}
	return apps
}

func TestExactlyOnceUnderReplyLoss(t *testing.T) {
	for _, mode := range []Mode{ModeSeparate, ModeBASE} {
		t.Run(mode.String(), func(t *testing.T) {
			var apps *[]*counter.Counter
			c := build(t, counterOpts(func(o *Options) {
				o.Mode = mode
				o.ReplyMode = replycert.ModeQuorum
				o.ClientRetransmit = types.Millisecond(40)
				apps = hostedApps(o)
			}))
			// Drop most replies on their way to the client: the client
			// must retransmit, and the increments must still apply
			// exactly once.
			for _, a := range c.Top.Agreement {
				c.Net.SetLink(a, c.Top.Clients[0], transport.LinkOpts{Drop: 0.85, MinDelay: 50_000, MaxDelay: 200_000})
			}
			for _, e := range c.Top.Execution {
				for _, a := range c.Top.Agreement {
					c.Net.SetLink(e, a, transport.LinkOpts{Drop: 0.5, MinDelay: 50_000, MaxDelay: 200_000})
				}
			}
			for i := 1; i <= 5; i++ {
				if got := mustInvoke(t, c, 0, "inc"); got != fmt.Sprint(i) {
					t.Fatalf("inc #%d = %q", i, got)
				}
			}
			if c.Clients[0].Metrics.Retransmits == 0 {
				t.Error("loss never forced a client retransmission; test is vacuous")
			}
			if len(*apps) == 0 {
				t.Fatal("no replica hosts the application")
			}
			for i, app := range *apps {
				if v := app.Value(); v != 5 {
					t.Errorf("replica #%d counted %d increments, want exactly 5", i, v)
				}
			}
		})
	}
}

func TestToleratesCrashedExecutor(t *testing.T) {
	c := build(t, counterOpts(nil))
	c.CrashExec(2)
	if got := mustInvoke(t, c, 0, "inc"); got != "1" {
		t.Fatalf("inc with g crashed executors = %q", got)
	}
	// Crash one more: g+1 faults exceed the threshold — no certificate
	// can form.
	c.CrashExec(1)
	cl := c.Clients[0]
	res := recordReplies(cl)
	if err := cl.Submit([]byte("inc"), c.Net.Now()); err != nil {
		t.Fatal(err)
	}
	if c.Net.RunUntil(res.arrived, c.Net.Now()+types.Time(1e9)) {
		t.Fatal("reply certificate formed with g+1 crashed executors")
	}
	// Revive: the pipeline drains and the client completes.
	c.Net.Revive(c.Top.Execution[1])
	if !c.Net.RunUntil(res.arrived, c.Net.Now()+invokeTimeout) {
		t.Fatal("no progress after executor revival")
	}
	if r := res.last(); r != "2" {
		t.Errorf("post-revival result = %q, want 2", r)
	}
}

func TestToleratesCrashedAgreementBackup(t *testing.T) {
	c := build(t, counterOpts(nil))
	c.CrashAgreement(3)
	if got := mustInvoke(t, c, 0, "inc"); got != "1" {
		t.Errorf("inc with a crashed backup = %q", got)
	}
}

func TestToleratesCrashedAgreementPrimary(t *testing.T) {
	c := build(t, counterOpts(nil))
	c.CrashAgreement(0) // view-0 primary
	if got := mustInvoke(t, c, 0, "inc"); got != "1" {
		t.Errorf("inc after primary crash = %q", got)
	}
	// The cluster moved to a new view.
	advanced := false
	for _, id := range c.Top.Agreement[1:] {
		if c.Engines[id].View() > 0 {
			advanced = true
		}
	}
	if !advanced {
		t.Error("no replica advanced past view 0")
	}
}

func TestToleratesCrashedFilter(t *testing.T) {
	c := build(t, counterOpts(func(o *Options) {
		o.Mode = ModeFirewall
	}))
	c.CrashFilter(0, 1) // one fault: within h=1 tolerance
	if got := mustInvoke(t, c, 0, "inc"); got != "1" {
		t.Errorf("inc with a crashed filter = %q", got)
	}
	// A second, diagonal fault exceeds the h=1 tolerance: no all-correct
	// column remains, so no request can reach the executors (this is the
	// paper's exact bound — (h+1)² filters tolerate h faults).
	c.CrashFilter(1, 0)
	cl := c.Clients[0]
	res := recordReplies(cl)
	if err := cl.Submit([]byte("inc"), c.Net.Now()); err != nil {
		t.Fatal(err)
	}
	if c.Net.RunUntil(res.arrived, c.Net.Now()+types.Time(1e9)) {
		t.Fatal("progress with h+1 filter faults: the grid bound is not being exercised")
	}
	// Reviving one filter restores a correct path.
	c.Net.Revive(c.Top.Filters[1][0])
	if !c.Net.RunUntil(res.arrived, c.Net.Now()+invokeTimeout) {
		t.Fatal("no recovery after filter revival")
	}
	if r := res.last(); r != "2" {
		t.Errorf("post-revival result = %q, want 2", r)
	}
}

// lyingExec wraps a real execution replica identity but fabricates reply
// bodies, modeling a compromised executor trying to corrupt results.
type lyingExec struct {
	inner transport.Node
	c     *Cluster
	id    types.NodeID
}

func (l *lyingExec) Deliver(from types.NodeID, data []byte, now types.Time) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	if _, ok := msg.(*wire.Order); ok {
		// Let the real replica track state, but corrupt its outbound
		// replies by delivering and then sending a forged bundle.
		l.inner.Deliver(from, data, now)
		return
	}
	l.inner.Deliver(from, data, now)
}

func (l *lyingExec) Tick(now types.Time) { l.inner.Tick(now) }

func TestByzantineExecutorOutvoted(t *testing.T) {
	// A crashed-then-lying executor cannot corrupt results: with 2g+1=3
	// executors and quorum g+1=2, the two honest executors' matching
	// replies form the certificate. Here the Byzantine executor simply
	// stays silent on some requests and fabricates garbage shares on
	// others (garbage shares fail verification and are dropped).
	c := build(t, counterOpts(func(o *Options) {
		o.ReplyMode = replycert.ModeThreshold
		o.Mode = ModeFirewall
	}))
	evil := c.Top.Execution[0]
	// Simplest Byzantine behavior: arbitrary garbage to the top filter row.
	c.Net.Swap(evil, transport.NodeFunc{
		OnDeliver: func(from types.NodeID, data []byte, now types.Time) {
			send := c.Net.Bind(evil)
			for _, f := range c.Top.Filters[c.Top.H()] {
				send(f, []byte("garbage that is not even a message"))
				forged := &wire.ExecReply{
					Entries:  []wire.Reply{{View: 0, Seq: 1, Client: c.Top.Clients[0], Timestamp: 1, Body: []byte("WRONG")}},
					Executor: evil,
					Share:    []byte("not a share"),
				}
				send(f, wire.Marshal(forged))
			}
		},
	})
	if got := mustInvoke(t, c, 0, "inc"); got != "1" {
		t.Fatalf("result corrupted by Byzantine executor: %q", got)
	}
	rejected := uint64(0)
	for _, f := range c.Filters {
		rejected += f.Metrics.SharesRejected
	}
	if rejected == 0 {
		t.Error("no filter rejected the forged shares; test is vacuous")
	}
}

func TestConfidentialityBodiesSealedEverywhere(t *testing.T) {
	secretOp := []byte("add 123456789")
	secretReply := []byte("123456789")
	c := build(t, counterOpts(func(o *Options) {
		o.Mode = ModeFirewall
	}))
	// Tap every link: plaintext bodies must never appear on the wire —
	// agreement nodes and filters relay ciphertext only (§4.2.3). (Links
	// into/out of executors carry sealed bodies too; only process-local
	// state sees plaintext.)
	var leaks []string
	c.Net.Tap(func(from, to types.NodeID, data []byte) {
		if bytes.Contains(data, secretOp) || bytes.Contains(data, secretReply) {
			leaks = append(leaks, fmt.Sprintf("%v→%v", from, to))
		}
	})
	got, err := c.Invoke(0, secretOp, invokeTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "123456789" {
		t.Fatalf("reply = %q", got)
	}
	if len(leaks) > 0 {
		t.Errorf("plaintext appeared on links: %v", leaks)
	}
}

func TestFirewallWiringPredicate(t *testing.T) {
	top := BuildTopology(1, 1, 1, 1, ModeFirewall)
	allowed := FirewallWiring(top)
	client := top.Clients[0]
	agree := top.Agreement[0]
	exec := top.Execution[0]
	row0 := top.Filters[0][0]
	row1 := top.Filters[1][0]

	cases := []struct {
		from, to types.NodeID
		want     bool
		desc     string
	}{
		{client, agree, true, "client→agreement"},
		{agree, client, true, "agreement→client"},
		{client, exec, false, "client→exec forbidden"},
		{exec, client, false, "exec→client forbidden"},
		{agree, row0, true, "agreement→row0"},
		{row0, agree, true, "row0→agreement"},
		{agree, row1, false, "agreement→row1 skips a row"},
		{row0, row1, true, "row0→row1"},
		{row1, row0, true, "row1→row0"},
		{row1, exec, true, "top row→exec"},
		{exec, row1, true, "exec→top row"},
		{exec, row0, false, "exec→row0 skips a row"},
		{exec, agree, false, "exec→agreement forbidden"},
		{agree, exec, false, "agreement→exec forbidden"},
		{top.Filters[0][0], top.Filters[0][1], false, "same-row filters not wired"},
		{exec, top.Execution[1], true, "exec↔exec"},
	}
	for _, tc := range cases {
		if got := allowed(tc.from, tc.to); got != tc.want {
			t.Errorf("%s: allowed=%v, want %v", tc.desc, got, tc.want)
		}
	}
}

func TestBuildRejectsMissingApp(t *testing.T) {
	if _, err := BuildSim(Options{}); err == nil {
		t.Error("BuildSim accepted options without an App factory")
	}
}

func TestSequentialLoadThroughCheckpoints(t *testing.T) {
	for _, mode := range []Mode{ModeSeparate, ModeBASE} {
		t.Run(mode.String(), func(t *testing.T) {
			c := build(t, counterOpts(func(o *Options) {
				o.Mode = mode
				o.CheckpointInterval = 4
				o.WindowSize = 16
				o.BatchSize = 1
				o.Pipeline = 8
			}))
			const n = 30
			for i := 1; i <= n; i++ {
				if got := mustInvoke(t, c, 0, "inc"); got != fmt.Sprint(i) {
					t.Fatalf("inc #%d = %q", i, got)
				}
			}
			// Both clusters advanced their stable checkpoints and GCed. In
			// BASE mode stability proves the agreement replicas' payloads,
			// app state and reply table, match byte for byte.
			for id, e := range c.Execs {
				if e.StableSeq() == 0 {
					t.Errorf("executor %v never stabilized a checkpoint", id)
				}
			}
			for id, eng := range c.Engines {
				if eng.LastStable() == 0 {
					t.Errorf("agreement replica %v never stabilized a checkpoint", id)
				}
			}
		})
	}
}

func TestLaggingExecutorStateTransfer(t *testing.T) {
	c := build(t, counterOpts(func(o *Options) {
		o.CheckpointInterval = 4
		o.BatchSize = 1
		o.Pipeline = 8
		o.WindowSize = 16
	}))
	lagging := c.Top.Execution[2]
	c.Net.Crash(lagging)
	for i := 1; i <= 20; i++ {
		mustInvoke(t, c, 0, "inc")
	}
	c.Net.Revive(lagging)
	// The revived replica rejoins lazily: the next orders reveal the gap,
	// triggering a checkpoint transfer for the garbage-collected prefix
	// and certificate fetches for the live tail (§3.3.1).
	for i := 21; i <= 26; i++ {
		if got := mustInvoke(t, c, 0, "inc"); got != fmt.Sprint(i) {
			t.Fatalf("inc #%d = %q", i, got)
		}
	}
	ok := c.Net.RunUntil(func() bool {
		return c.ExecApps[lagging].(*counter.Counter).Value() == 26
	}, c.Net.Now()+types.Time(10e9))
	if !ok {
		t.Fatalf("revived executor state = %d, want 26 (maxN=%d stable=%d, transfers=%d)",
			c.ExecApps[lagging].(*counter.Counter).Value(), c.Execs[lagging].MaxN(),
			c.Execs[lagging].StableSeq(), c.Execs[lagging].Metrics.StateTransfer)
	}
	if c.Execs[lagging].Metrics.StateTransfer == 0 {
		t.Error("no state transfer occurred; test is vacuous")
	}
}

// restoreCounter counts the checkpoint payloads restored into a counter.
type restoreCounter struct {
	*counter.Counter
	restores int
}

func (r *restoreCounter) Restore(data []byte) error {
	r.restores++
	return r.Counter.Restore(data)
}

// TestBASELaggingReplicaStateTransfer is TestLaggingExecutorStateTransfer
// for the coupled baseline: a crashed agreement replica misses a
// garbage-collected prefix and catches up by restoring a peer's checkpoint
// into the state machine it executes.
func TestBASELaggingReplicaStateTransfer(t *testing.T) {
	var apps []*restoreCounter
	c := build(t, counterOpts(func(o *Options) {
		o.Mode = ModeBASE
		o.CheckpointInterval = 4
		o.BatchSize = 1
		o.Pipeline = 8
		o.WindowSize = 16
		o.App = func() sm.StateMachine {
			a := &restoreCounter{Counter: counter.New()}
			apps = append(apps, a)
			return a
		}
	}))
	lagging := c.Top.Agreement[3]
	app := apps[3] // the factory runs once per agreement replica, in order
	c.Net.Crash(lagging)
	for i := 1; i <= 20; i++ {
		mustInvoke(t, c, 0, "inc")
	}
	c.Net.Revive(lagging)
	for i := 21; i <= 26; i++ {
		if got := mustInvoke(t, c, 0, "inc"); got != fmt.Sprint(i) {
			t.Fatalf("inc #%d = %q", i, got)
		}
	}
	ok := c.Net.RunUntil(func() bool { return app.Value() == 26 }, c.Net.Now()+types.Time(10e9))
	if !ok {
		t.Fatalf("revived replica state = %d, want 26 (restores=%d)", app.Value(), app.restores)
	}
	if app.restores != 1 {
		t.Errorf("revived replica restored %d checkpoints, want exactly 1", app.restores)
	}
}

func TestFirewallOrderedRelease(t *testing.T) {
	// The §4.3 restriction must not cost liveness: a full workload runs
	// through filters that release replies in sequence order.
	c := build(t, counterOpts(func(o *Options) {
		o.Mode = ModeFirewall
		o.OrderedRelease = true
	}))
	for i := 1; i <= 10; i++ {
		if got := mustInvoke(t, c, 0, "inc"); got != fmt.Sprint(i) {
			t.Fatalf("inc #%d = %q", i, got)
		}
	}
	held := uint64(0)
	for _, f := range c.Filters {
		held += f.Metrics.HeldForOrder
	}
	if held == 0 {
		t.Log("no reply was ever held (in-order arrival); restriction exercised only structurally")
	}
}
