package saebft

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// runtimeRow builds a one-logical-client handle that can never complete a
// call, so every call ends on the runtime's own timeout, cancellation, or
// close path. The returned close function tears the handle's backend down.
type runtimeRow struct {
	name string
	open func(t *testing.T, timeout time.Duration) (*Client, func())
}

var runtimeRows = []runtimeRow{
	{"sim-agreement-crashed", func(t *testing.T, timeout time.Duration) (*Client, func()) {
		c, err := NewCluster(WithApp("counter"), WithClients(1), WithInvokeTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		for i := 0; i < c.Info().Agreement; i++ {
			if err := c.CrashAgreement(i); err != nil {
				t.Fatal(err)
			}
		}
		return c.Client(), func() { c.Close() }
	}},
	{"dialed-nodes-down", func(t *testing.T, timeout time.Duration) (*Client, func()) {
		cfg, err := GenerateConfig(DeployParams{App: "counter", Clients: 1, ThresholdBits: 512})
		if err != nil {
			t.Fatal(err)
		}
		// Fresh loopback ports nobody serves: the deployment's nodes were
		// never started.
		for id := range cfg.d.Addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cfg.d.Addrs[id] = ln.Addr().String()
			ln.Close()
		}
		top, err := cfg.topology()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := DialConfig(cfg, DialClients(int(top.Clients[0])), DialTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl, func() { cl.Close() }
	}},
}

// waitInFlight polls until the handle has exactly n calls admitted.
func waitInFlight(t *testing.T, cl *Client, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cl.ClientStats().InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d, want %d", cl.ClientStats().InFlight, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// invokeInBackground starts one Invoke and returns its error channel once
// the call has been admitted and had time to reach the runtime.
func invokeInBackground(t *testing.T, cl *Client, ctx context.Context) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := cl.Invoke(ctx, []byte("inc"))
		errc <- err
	}()
	waitInFlight(t, cl, 1)
	time.Sleep(20 * time.Millisecond)
	return errc
}

func awaitErr(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("call did not resolve")
		return nil
	}
}

// TestRuntimeContract pins the three ways a call can end without a reply —
// the runtime's timeout, the caller's context, and Close — on both the
// simulated transport and a dialed TCP handle.
func TestRuntimeContract(t *testing.T) {
	for _, row := range runtimeRows {
		t.Run(row.name+"/timeout", func(t *testing.T) {
			cl, _ := row.open(t, 200*time.Millisecond)
			_, err := cl.Invoke(context.Background(), []byte("inc"))
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			waitInFlight(t, cl, 0)
		})
		t.Run(row.name+"/cancel", func(t *testing.T) {
			cl, _ := row.open(t, time.Hour)
			// Twice: the single logical client must be free and quiesced
			// after the first cancellation, or the second call could not
			// be admitted.
			for i := 0; i < 2; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				errc := invokeInBackground(t, cl, ctx)
				cancel()
				if err := awaitErr(t, errc); !errors.Is(err, context.Canceled) {
					t.Fatalf("call %d: err = %v, want context.Canceled", i, err)
				}
				waitInFlight(t, cl, 0)
			}
		})
		t.Run(row.name+"/close", func(t *testing.T) {
			cl, closeFn := row.open(t, time.Hour)
			errc := invokeInBackground(t, cl, context.Background())
			closeFn()
			if err := awaitErr(t, errc); !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
		})
	}
}

// TestSimSameSeedSameSchedule runs the same sequential workload on two
// simulated clusters built with the same seeds: they must end at the same
// virtual time having delivered the same messages.
func TestSimSameSeedSameSchedule(t *testing.T) {
	run := func() (time.Duration, uint64) {
		c := startSim(t, WithApp("counter"), WithClients(1), WithSeed("same-seed"), WithNetSeed(7))
		defer c.Close()
		ctx := context.Background()
		for i := 0; i < 50; i++ {
			if _, err := c.Client().Invoke(ctx, []byte("inc")); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		vt, err := c.VirtualTime()
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return vt, st.MessagesDelivered
	}
	vt1, msgs1 := run()
	vt2, msgs2 := run()
	if vt1 != vt2 || msgs1 != msgs2 {
		t.Fatalf("same seeds diverged: virtual time %v vs %v, messages %d vs %d", vt1, vt2, msgs1, msgs2)
	}
}

// TestSimContextDeadlineIsWallTime: on the simulator the invoke timeout is
// virtual and a context deadline is wall time; neither shortens the other.
// A failover over slow links needs about 1.8 s of virtual time but well
// under 0.3 s of wall time (even under -race), so it completes inside an
// 800 ms context deadline.
func TestSimContextDeadlineIsWallTime(t *testing.T) {
	const wallDeadline = 800 * time.Millisecond
	c := startSim(t,
		WithMode(ModeBase), // fewest nodes: least wall time per virtual millisecond
		WithApp("counter"),
		WithClients(1),
		WithInvokeTimeout(time.Hour),
		WithTransport(SimTransport(SimConfig{MinDelay: 200 * time.Millisecond, MaxDelay: 200 * time.Millisecond})),
	)
	if err := c.CrashAgreement(0); err != nil {
		t.Fatal(err)
	}
	start, err := c.VirtualTime()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), wallDeadline)
	defer cancel()
	reply, err := c.Client().Invoke(ctx, []byte("inc"))
	if err != nil {
		t.Fatalf("invoke across a failover: %v", err)
	}
	if string(reply) != "1" {
		t.Fatalf("reply = %q, want 1", reply)
	}
	end, err := c.VirtualTime()
	if err != nil {
		t.Fatal(err)
	}
	// The test only means something if the failover outlasted the context
	// deadline on the virtual clock.
	if end-start <= wallDeadline {
		t.Fatalf("failover took %v virtual, not more than the %v context deadline", end-start, wallDeadline)
	}
}
