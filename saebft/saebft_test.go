package saebft

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// startSim builds and starts a sim-transport cluster, tying its lifetime to
// the test.
func startSim(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// virtualThroughput issues n calls back to back against a started
// sim-transport cluster, so all n are in flight together, and returns their
// completion rate over the virtual clock, which — unlike wall time — does
// not depend on the machine. Calls are admitted by goroutines in wall time,
// and a driver that steps meanwhile runs the virtual clock through timer
// ticks; so the driver stays parked until admission settles, and waits for
// each finished call's successor (simRuntime.awaitFollowUps).
func virtualThroughput(t *testing.T, c *Cluster, n int, issue func(context.Context) <-chan Result) float64 {
	t.Helper()
	sr, err := c.sim()
	if err != nil {
		t.Fatal(err)
	}
	sr.awaitFollowUps.Store(true)
	defer sr.awaitFollowUps.Store(false)
	sr.holdStepping.Store(true)
	start, err := c.VirtualTime()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]<-chan Result, n)
	for i := range results {
		results[i] = issue(context.Background())
	}
	awaitAdmission(t, sr)
	sr.holdStepping.Store(false)
	for i, ch := range results {
		if res := <-ch; res.Err != nil {
			t.Fatalf("call %d: %v", i, res.Err)
		}
	}
	end, err := c.VirtualTime()
	if err != nil {
		t.Fatal(err)
	}
	if end <= start {
		t.Fatalf("virtual clock did not advance over %d calls", n)
	}
	return float64(n) / (end - start).Seconds()
}

// awaitAdmission waits, in wall time, until the parked driver holds calls
// in flight and their number has stayed put for a few milliseconds.
func awaitAdmission(t *testing.T, sr *simRuntime) {
	t.Helper()
	const settle = 5 * time.Millisecond
	last, since := -1, time.Now()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		active := 0
		if err := sr.do(func() { active = sr.active }); err != nil {
			t.Fatal(err)
		}
		if active != last {
			last, since = active, time.Now()
		} else if active > 0 && time.Since(since) >= settle {
			return
		}
	}
	t.Fatalf("admission did not settle in 10s (%d calls in flight)", last)
}

func TestSmokeAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeBase, ModeSeparate, ModeFirewall} {
		t.Run(mode.String(), func(t *testing.T) {
			c := startSim(t,
				WithMode(mode),
				WithApp("kv"),
				WithClients(2),
			)
			info := c.Info()
			if info.Mode != mode {
				t.Fatalf("Info.Mode = %v, want %v", info.Mode, mode)
			}
			if info.Agreement != 4 {
				t.Fatalf("agreement replicas = %d, want 4", info.Agreement)
			}
			if mode == ModeBase && info.Execution != 0 {
				t.Fatalf("BASE has %d execution replicas, want 0", info.Execution)
			}
			if mode != ModeBase && info.Execution != 3 {
				t.Fatalf("execution replicas = %d, want 3", info.Execution)
			}
			if mode == ModeFirewall && info.Filters != 4 {
				t.Fatalf("filters = %d, want 4", info.Filters)
			}

			ctx := context.Background()
			cl := c.Client()
			put, err := EncodeOp("kv", "put", "paper", "sosp2003")
			if err != nil {
				t.Fatal(err)
			}
			if reply, err := cl.Invoke(ctx, put); err != nil {
				t.Fatalf("put: %v", err)
			} else if string(reply) != "OK" {
				t.Fatalf("put reply = %q", reply)
			}
			get, _ := EncodeOp("kv", "get", "paper")
			reply, err := cl.Invoke(ctx, get)
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			if !bytes.Equal(reply, []byte("sosp2003")) {
				t.Fatalf("get reply = %q, want sosp2003", reply)
			}
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Replies < 2 {
				t.Fatalf("stats replies = %d, want >= 2", st.Replies)
			}
		})
	}
}

func TestLifecycle(t *testing.T) {
	c, err := NewCluster(WithApp("counter"))
	if err != nil {
		t.Fatal(err)
	}
	// Client before Start fails cleanly.
	if _, err := c.Client().Invoke(context.Background(), []byte("inc")); err != ErrNotStarted {
		t.Fatalf("invoke before start: err = %v, want ErrNotStarted", err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err == nil {
		t.Fatal("second Start should fail")
	}
	if reply, err := c.Client().Invoke(context.Background(), []byte("inc")); err != nil || string(reply) != "1" {
		t.Fatalf("inc = %q, %v", reply, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	if _, err := c.Client().Invoke(context.Background(), []byte("inc")); err != ErrClosed {
		t.Fatalf("invoke after close: err = %v, want ErrClosed", err)
	}
}

func TestContextCancelClosesCluster(t *testing.T) {
	c, err := NewCluster(WithApp("counter"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client().Invoke(context.Background(), []byte("inc")); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Client().Invoke(context.Background(), []byte("inc")); err == ErrClosed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not close after context cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestInvokeContextCancellation(t *testing.T) {
	c := startSim(t, WithApp("counter"), WithClients(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Client().Invoke(ctx, []byte("inc")); err == nil {
		t.Fatal("invoke with canceled context should fail")
	}
	// The logical client must be reusable afterwards.
	if reply, err := c.Client().Invoke(context.Background(), []byte("get")); err != nil {
		t.Fatalf("invoke after cancellation: %v", err)
	} else if string(reply) != "0" && string(reply) != "1" {
		t.Fatalf("counter = %q after canceled inc", reply)
	}
}

func TestCrashSurvival(t *testing.T) {
	c := startSim(t, WithMode(ModeSeparate), WithApp("counter"), WithClients(2))
	ctx := context.Background()
	cl := c.Client()
	if _, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatal(err)
	}
	// Execution survives g=1 crashed executor.
	if err := c.CrashExec(0); err != nil {
		t.Fatal(err)
	}
	if reply, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatalf("inc with crashed executor: %v", err)
	} else if string(reply) != "2" {
		t.Fatalf("counter = %q, want 2", reply)
	}
	// Agreement survives a crashed primary via view change.
	if err := c.CrashAgreement(0); err != nil {
		t.Fatal(err)
	}
	if reply, err := cl.Invoke(ctx, []byte("inc")); err != nil {
		t.Fatalf("inc after primary crash: %v", err)
	} else if string(reply) != "3" {
		t.Fatalf("counter = %q, want 3", reply)
	}
}

// TestFaultThresholds runs the paper's f=2, g=2 configuration: 3f+1 = 7
// agreement and 2g+1 = 5 execution replicas, which keep certifying replies
// in order with f of the first (the primary among them) and g of the second
// crashed.
func TestFaultThresholds(t *testing.T) {
	c := startSim(t, WithMode(ModeSeparate), WithFaults(2, 2, 0), WithApp("counter"), WithClients(2))
	if info := c.Info(); info.F != 2 || info.G != 2 || info.Agreement != 7 || info.Execution != 5 {
		t.Fatalf("Info() = %+v, want f=g=2 over 7 agreement and 5 execution replicas", info)
	}
	for _, i := range []int{0, 4} {
		if err := c.CrashAgreement(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{1, 3} {
		if err := c.CrashExec(i); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.Client()
	for want := 1; want <= 20; want++ {
		reply, err := cl.Invoke(context.Background(), []byte("inc"))
		if err != nil {
			t.Fatalf("inc %d: %v", want, err)
		}
		if string(reply) != strconv.Itoa(want) {
			t.Fatalf("inc %d: counter = %q", want, reply)
		}
	}
	if metricSum(c.Metrics(), "saebft_pbft_view_changes_total") == 0 {
		t.Error("no view change replaced the crashed primary")
	}
}

func TestByzantineExecMasked(t *testing.T) {
	c := startSim(t, WithMode(ModeFirewall), WithApp("kv"), WithClients(1))
	secret := []byte("account-balance: 1,000,000")
	leaks := 0
	if err := c.Tap(func(from, to int, payload []byte) {
		if bytes.Contains(payload, secret) {
			leaks++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.ByzantineExec(0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := c.Client()
	put, _ := EncodeOp("kv", "put", "vault", string(secret))
	if _, err := cl.Invoke(ctx, put); err != nil {
		t.Fatal(err)
	}
	get, _ := EncodeOp("kv", "get", "vault")
	got, err := cl.Invoke(ctx, get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("read back %q despite Byzantine executor", got)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SharesRejected == 0 {
		t.Fatal("filters rejected no forged shares; the adversary was idle")
	}
	if leaks != 0 {
		t.Fatalf("secret crossed the network in plaintext %d times", leaks)
	}
}

func TestSimOnlyHooksOnTCP(t *testing.T) {
	c, err := NewCluster(WithApp("counter"), WithTransport(TCPTransport()), WithClients(1), WithThresholdBits(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CrashExec(0); err != ErrSimOnly {
		t.Fatalf("CrashExec on TCP: err = %v, want ErrSimOnly", err)
	}
}

// TestConcurrentInvokeAsync proves that one handle admits at least 8
// concurrent in-flight requests and completes them all correctly. The sim
// driver is parked while the requests are admitted, so the in-flight count
// is observed deterministically, then released to let them complete.
func TestConcurrentInvokeAsync(t *testing.T) {
	const width = 8
	const total = 2 * width
	c := startSim(t, WithMode(ModeSeparate), WithApp("kv"), WithClients(width))
	cl := c.Client()
	if cl.ClientStats().Pipeline != width {
		t.Fatalf("Pipeline = %d, want %d", cl.ClientStats().Pipeline, width)
	}

	sr, err := c.sim()
	if err != nil {
		t.Fatal(err)
	}
	sr.holdStepping.Store(true)

	ctx := context.Background()
	results := make([]<-chan Result, total)
	for i := 0; i < total; i++ {
		op, err := EncodeOp("kv", "put", fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = cl.InvokeAsync(ctx, op)
	}
	// With the driver parked, exactly `width` invocations are admitted —
	// the pipelined in-flight window — and the rest are queued.
	if got := cl.ClientStats().InFlight; got != width {
		t.Fatalf("InFlight with driver parked = %d, want %d", got, width)
	}
	sr.holdStepping.Store(false)

	for i, ch := range results {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
		if string(res.Reply) != "OK" {
			t.Fatalf("op %d reply = %q", i, res.Reply)
		}
	}
	if got := cl.ClientStats().MaxInFlight; got < width {
		t.Fatalf("MaxInFlight = %d, want >= %d", got, width)
	}
	if got := cl.ClientStats().InFlight; got != 0 {
		t.Fatalf("InFlight after completion = %d, want 0", got)
	}

	// All writes must have been applied: read every key back.
	for i := 0; i < total; i++ {
		get, _ := EncodeOp("kv", "get", fmt.Sprintf("key-%d", i))
		reply, err := cl.Invoke(ctx, get)
		if err != nil {
			t.Fatalf("get key-%d: %v", i, err)
		}
		if want := fmt.Sprintf("value-%d", i); string(reply) != want {
			t.Fatalf("key-%d = %q, want %q", i, reply, want)
		}
	}
}

// TestConcurrentInvokeSharedHandle hammers one handle from many goroutines
// mixing Invoke and InvokeAsync.
func TestConcurrentInvokeSharedHandle(t *testing.T) {
	c := startSim(t, WithApp("counter"), WithClients(4))
	cl := c.Client()
	ctx := context.Background()
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, err := cl.Invoke(ctx, []byte("inc")); err != nil {
					errs <- err
				}
				return
			}
			if res := <-cl.InvokeAsync(ctx, []byte("inc")); res.Err != nil {
				errs <- res.Err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	reply, err := cl.Invoke(ctx, []byte("get"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != fmt.Sprint(n) {
		t.Fatalf("counter = %q after %d concurrent incs", reply, n)
	}
}

func TestCustomAppFactory(t *testing.T) {
	c := startSim(t,
		WithAppFactory(func() StateMachine {
			return StateMachineFunc(func(op []byte, nd NonDet) []byte {
				return append([]byte("echo:"), op...)
			})
		}),
		WithClients(1),
	)
	reply, err := c.Client().Invoke(context.Background(), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:hello" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestRegisteredAppByName(t *testing.T) {
	RegisterApp("test-upper", func() StateMachine {
		return StateMachineFunc(func(op []byte, nd NonDet) []byte {
			return bytes.ToUpper(op)
		})
	})
	c := startSim(t, WithApp("test-upper"), WithClients(1))
	reply, err := c.Client().Invoke(context.Background(), []byte("shout"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "SHOUT" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestUnknownAppFails(t *testing.T) {
	if _, err := NewCluster(WithApp("no-such-app")); err == nil {
		t.Fatal("NewCluster with unknown app should fail")
	}
}
