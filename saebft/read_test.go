package saebft

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

func TestReadCertifiedReadYourWrites(t *testing.T) {
	c := startSim(t, WithApp("kv"))
	ctx := context.Background()
	cl := c.Client()

	put, _ := EncodeOp("kv", "put", "paper", "sosp2003")
	if _, err := cl.Invoke(ctx, put); err != nil {
		t.Fatal(err)
	}
	get, _ := EncodeOp("kv", "get", "paper")
	got, err := cl.ReadCertified(ctx, get)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "sosp2003" {
		t.Fatalf("certified read = %q, want sosp2003", got)
	}

	cs := cl.ClientStats()
	if cs.Reads != 1 || cs.ReadsCertified != 1 || cs.ReadFallbacks != 0 {
		t.Fatalf("read counters = %+v, want one read served entirely on the fast path", cs)
	}
	if cs.Watermark == 0 {
		t.Fatal("implicit session watermark did not advance past the write")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadsServed < 2 {
		t.Fatalf("executors served %d read replies, want >= g+1", st.ReadsServed)
	}
	if st.Reads != 1 || st.ReadsCertified != 1 {
		t.Fatalf("cluster-side read counters = Reads %d / Certified %d, want 1/1", st.Reads, st.ReadsCertified)
	}
}

func TestReadCertifiedFallsBackForMutatingOp(t *testing.T) {
	c := startSim(t, WithApp("counter"))
	ctx := context.Background()
	cl := c.Client()

	// "inc" mutates, so the executors certify a refusal and the call serves
	// the operation through full agreement instead — same answer as Invoke.
	got, err := cl.ReadCertified(ctx, []byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1" {
		t.Fatalf("fallback reply = %q, want 1", got)
	}
	cs := cl.ClientStats()
	if cs.ReadFallbacks != 1 || cs.ReadsCertified != 0 {
		t.Fatalf("counters = %+v, want exactly one fallback and no fast-path certificate", cs)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadsRefused < 2 {
		t.Fatalf("executors refused %d probes, want >= g+1", st.ReadsRefused)
	}
	// The mutation applied exactly once despite the refused probe.
	if got, err := cl.ReadCertified(ctx, []byte("get")); err != nil || string(got) != "1" {
		t.Fatalf("get = %q (%v), want 1", got, err)
	}
}

func TestReadCertifiedFallsBackWhenSessionAhead(t *testing.T) {
	c := startSim(t, WithApp("counter"))
	ctx := context.Background()
	cl := c.Client()
	if _, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatal(err)
	}

	// A session floor no replica can meet (more than g executors behind is
	// indistinguishable to the client): probes mismatch with no usable hint,
	// and the read serves through agreement rather than blocking.
	s := cl.Session()
	s.AdvanceTo(1_000_000)
	got, err := s.ReadCertified(ctx, []byte("get"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1" {
		t.Fatalf("fallback read = %q, want 1", got)
	}
	if cs := cl.ClientStats(); cs.ReadFallbacks != 1 {
		t.Fatalf("ReadFallbacks = %d, want 1", cs.ReadFallbacks)
	}
	if s.Watermark() < 1_000_000 {
		t.Fatal("session watermark regressed below AdvanceTo")
	}
}

func TestReadCertifiedMasksByzantineExecutor(t *testing.T) {
	c := startSim(t, WithApp("kv"), WithClients(1))
	if err := c.ByzantineExec(0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := c.Client()
	put, _ := EncodeOp("kv", "put", "k", "honest")
	if _, err := cl.Invoke(ctx, put); err != nil {
		t.Fatal(err)
	}
	get, _ := EncodeOp("kv", "get", "k")
	got, err := cl.ReadCertified(ctx, get)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "honest" {
		t.Fatalf("certified read = %q despite Byzantine executor, want honest", got)
	}
	if cs := cl.ClientStats(); cs.ReadsCertified != 1 {
		t.Fatalf("read did not certify on the fast path: %+v", cs)
	}
}

func TestReadWatermarkMonotonicAcrossViewChange(t *testing.T) {
	c := startSim(t, WithApp("counter"))
	ctx := context.Background()
	cl := c.Client()

	if _, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.ReadCertified(ctx, []byte("get")); err != nil || string(got) != "1" {
		t.Fatalf("pre-view-change read = %q (%v), want 1", got, err)
	}
	w1 := cl.ClientStats().Watermark

	// Crash the agreement primary; the next write rides the view change and
	// certifies at a higher sequence number, and reads keep observing it.
	if err := c.CrashAgreement(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatal(err)
	}
	w2 := cl.ClientStats().Watermark
	if w2 <= w1 {
		t.Fatalf("watermark did not advance across the view change: %d -> %d", w1, w2)
	}
	if got, err := cl.ReadCertified(ctx, []byte("get")); err != nil || string(got) != "2" {
		t.Fatalf("post-view-change read = %q (%v), want 2", got, err)
	}
	if w3 := cl.ClientStats().Watermark; w3 < w2 {
		t.Fatalf("watermark regressed after a certified read: %d -> %d", w2, w3)
	}
}

func TestSessionsIsolateReadFloors(t *testing.T) {
	c := startSim(t, WithApp("kv"), WithClients(2))
	ctx := context.Background()
	cl := c.Client()

	a, b := cl.Session(), cl.Session()
	put, _ := EncodeOp("kv", "put", "mine", "A")
	if _, err := a.Invoke(ctx, put); err != nil {
		t.Fatal(err)
	}
	if a.Watermark() == 0 {
		t.Fatal("session A watermark did not advance past its write")
	}
	// B never wrote: its floor stays where the handle was when it was
	// derived, unaffected by A's progress.
	if b.Watermark() != 0 {
		t.Fatalf("session B watermark = %d, want 0 (no writes of its own)", b.Watermark())
	}
	get, _ := EncodeOp("kv", "get", "mine")
	got, err := a.ReadCertified(ctx, get)
	if err != nil || string(got) != "A" {
		t.Fatalf("session A read = %q (%v), want A", got, err)
	}
}

// TestCertifiedReadThroughputGain is the read path's acceptance property:
// 256 concurrent read-only calls on the simulated transport must complete at
// least 2x faster in virtual time through ReadCertified (one round trip to
// the execution replicas) than through Invoke (the whole three-phase
// protocol first), with every read certified on the fast path. (Measured
// over 30 runs: 3.5x to 9.0x, median 5.7x. Invoke's agreement batches hold
// a request from each of the 8 clients and close without waiting out the
// batch timer, so the gap is the protocol's, not the timer's.)
func TestCertifiedReadThroughputGain(t *testing.T) {
	const n = 256
	op := make([]byte, 128)
	run := func(certified bool) (float64, ClientStats) {
		c := startSim(t, WithApp("null"), WithClients(8), WithInvokeTimeout(2*time.Minute))
		defer c.Close()
		cl := c.Client()
		// One warm-up write settles the view and lifts the handle's watermark
		// above zero, so certified reads pay the read-your-writes floor check.
		if _, err := cl.Invoke(context.Background(), op); err != nil {
			t.Fatal(err)
		}
		serve := cl.Invoke
		if certified {
			serve = cl.ReadCertified
		}
		rate := virtualThroughput(t, c, n, func(ctx context.Context) <-chan Result {
			ch := make(chan Result, 1)
			go func() {
				reply, err := serve(ctx, op)
				ch <- Result{Reply: reply, Err: err}
			}()
			return ch
		})
		return rate, cl.ClientStats()
	}
	invoked, _ := run(false)
	certified, cs := run(true)
	t.Logf("invoke %.0f reads/s, certified %.0f reads/s (%.1fx)", invoked, certified, certified/invoked)
	if cs.ReadsCertified != n || cs.ReadFallbacks != 0 {
		t.Fatalf("%d/%d reads certified, %d fell back; want all on the fast path", cs.ReadsCertified, n, cs.ReadFallbacks)
	}
	if certified < 2*invoked {
		t.Fatalf("certified read speedup = %.2fx, want >= 2x", certified/invoked)
	}
}

// scriptedRuntime fakes a clusterRuntime so the Session retry policy can be
// exercised deterministically, attempt by attempt.
type scriptedRuntime struct {
	reads   []func(floor uint64) (readAttempt, error)
	floors  []uint64
	invokes int
}

func (r *scriptedRuntime) invoke(ctx context.Context, idx int, op []byte, timeout time.Duration) (invokeResult, error) {
	r.invokes++
	return invokeResult{body: []byte("fallback"), seq: 99}, nil
}

func (r *scriptedRuntime) readCertified(ctx context.Context, idx int, op []byte, floor uint64, timeout time.Duration) (readAttempt, error) {
	if len(r.reads) == 0 {
		return readAttempt{}, fmt.Errorf("unexpected read attempt at floor %d", floor)
	}
	r.floors = append(r.floors, floor)
	next := r.reads[0]
	r.reads = r.reads[1:]
	return next(floor)
}

func (r *scriptedRuntime) stats() (Stats, error) { return Stats{}, nil }
func (r *scriptedRuntime) close() error          { return nil }
func (r *scriptedRuntime) kill()                 {}

func scriptedClient(rt clusterRuntime) *Client {
	return newDialedClient(rt, 1, time.Second)
}

func TestSessionRetriesMismatchAtHint(t *testing.T) {
	rt := &scriptedRuntime{reads: []func(uint64) (readAttempt, error){
		func(uint64) (readAttempt, error) { return readAttempt{mismatch: true, hint: 7}, nil },
		func(uint64) (readAttempt, error) { return readAttempt{body: []byte("v"), seq: 9}, nil },
	}}
	cl := scriptedClient(rt)
	got, err := cl.ReadCertified(context.Background(), []byte("get"))
	if err != nil || string(got) != "v" {
		t.Fatalf("read = %q (%v), want v", got, err)
	}
	if len(rt.floors) != 2 || rt.floors[0] != 0 || rt.floors[1] != 7 {
		t.Fatalf("probe floors = %v, want [0 7] (retry at the hint)", rt.floors)
	}
	cs := cl.ClientStats()
	if cs.ReadRetries != 1 || cs.ReadFallbacks != 0 || cs.ReadsCertified != 1 {
		t.Fatalf("counters = %+v, want one retry, no fallback", cs)
	}
	if cs.Watermark != 9 {
		t.Fatalf("watermark = %d, want the certified 9", cs.Watermark)
	}
	if rt.invokes != 0 {
		t.Fatal("fast-path success still invoked through agreement")
	}
}

func TestSessionFallsBackWhenHintOffersNoProgress(t *testing.T) {
	rt := &scriptedRuntime{reads: []func(uint64) (readAttempt, error){
		func(floor uint64) (readAttempt, error) { return readAttempt{mismatch: true, hint: floor}, nil },
	}}
	cl := scriptedClient(rt)
	got, err := cl.ReadCertified(context.Background(), []byte("get"))
	if err != nil || string(got) != "fallback" {
		t.Fatalf("read = %q (%v), want the agreement fallback", got, err)
	}
	if rt.invokes != 1 || len(rt.floors) != 1 {
		t.Fatalf("probes=%d invokes=%d, want exactly one of each", len(rt.floors), rt.invokes)
	}
	if cs := cl.ClientStats(); cs.ReadFallbacks != 1 || cs.ReadRetries != 0 {
		t.Fatalf("counters = %+v, want a fallback without retries", cs)
	}
}

func TestSessionBoundsRetriesThenFallsBack(t *testing.T) {
	mismatch := func(floor uint64) (readAttempt, error) {
		return readAttempt{mismatch: true, hint: floor + 10}, nil
	}
	rt := &scriptedRuntime{reads: []func(uint64) (readAttempt, error){mismatch, mismatch, mismatch}}
	cl := scriptedClient(rt)
	got, err := cl.ReadCertified(context.Background(), []byte("get"))
	if err != nil || string(got) != "fallback" {
		t.Fatalf("read = %q (%v), want the agreement fallback", got, err)
	}
	if len(rt.floors) != maxReadAttempts {
		t.Fatalf("probe floors = %v, want exactly %d attempts", rt.floors, maxReadAttempts)
	}
	if cs := cl.ClientStats(); cs.ReadRetries != maxReadAttempts-1 || cs.ReadFallbacks != 1 {
		t.Fatalf("counters = %+v", cs)
	}
}

func TestSessionFallsBackOnRefusalAndNoReadPath(t *testing.T) {
	for name, script := range map[string]func(uint64) (readAttempt, error){
		"refused":    func(uint64) (readAttempt, error) { return readAttempt{refused: true, body: []byte("nope")}, nil },
		"noReadPath": func(uint64) (readAttempt, error) { return readAttempt{}, core.ErrNoReadPath },
		"timeout":    func(uint64) (readAttempt, error) { return readAttempt{}, fmt.Errorf("wrapped: %w", ErrTimeout) },
	} {
		t.Run(name, func(t *testing.T) {
			rt := &scriptedRuntime{reads: []func(uint64) (readAttempt, error){script}}
			cl := scriptedClient(rt)
			got, err := cl.ReadCertified(context.Background(), []byte("get"))
			if err != nil || string(got) != "fallback" {
				t.Fatalf("read = %q (%v), want the agreement fallback", got, err)
			}
			if rt.invokes != 1 {
				t.Fatalf("invokes = %d, want 1", rt.invokes)
			}
		})
	}
}

func TestTCPReadPath(t *testing.T) {
	c, err := NewCluster(
		WithApp("kv"),
		WithTransport(TCPTransport()),
		WithClients(2),
		WithThresholdBits(512),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	cl := c.Client()

	put, _ := EncodeOp("kv", "put", "transport", "tcp")
	if _, err := cl.Invoke(ctx, put); err != nil {
		t.Fatal(err)
	}
	get, _ := EncodeOp("kv", "get", "transport")
	got, err := cl.ReadCertified(ctx, get)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tcp" {
		t.Fatalf("certified read over TCP = %q, want tcp", got)
	}
	// A mutating op still falls back over TCP.
	put2, _ := EncodeOp("kv", "put", "transport", "tcp2")
	if got, err := cl.ReadCertified(ctx, put2); err != nil || string(got) != "OK" {
		t.Fatalf("fallback put over TCP = %q (%v), want OK", got, err)
	}
	cs := cl.ClientStats()
	if cs.ReadsCertified != 1 || cs.ReadFallbacks != 1 {
		t.Fatalf("counters = %+v, want one certified read and one fallback", cs)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadsServed < 2 {
		t.Fatalf("executors served %d read replies, want >= g+1", st.ReadsServed)
	}
}
