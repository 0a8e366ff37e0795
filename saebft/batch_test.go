package saebft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// echoApp returns a factory for a state machine that echoes each op back
// with a prefix, making per-op reply demultiplexing observable.
func echoApp() func() StateMachine {
	return func() StateMachine {
		return StateMachineFunc(func(op []byte, nd NonDet) []byte {
			return append([]byte("echo:"), op...)
		})
	}
}

func TestClientBatchingSmoke(t *testing.T) {
	c := startSim(t,
		WithApp("counter"),
		WithClients(4),
		WithClientBatching(8, 0, 0),
	)
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
		t.Fatalf("counter = %q after %d batched incs", reply, n)
	}
	cs := cl.ClientStats()
	if cs.BatchedOps < n {
		t.Fatalf("BatchedOps = %d, want >= %d", cs.BatchedOps, n)
	}
	if cs.Batches == 0 || cs.Batches > cs.BatchedOps {
		t.Fatalf("Batches = %d inconsistent with BatchedOps = %d", cs.Batches, cs.BatchedOps)
	}
}

// TestBatchingThroughputGain is client batching's acceptance property: 256
// concurrent InvokeAsync calls on the simulated transport must complete at
// least 2x faster in virtual time with 16-op batches than without, and must
// actually coalesce. The unbatched handle keeps 8 requests in flight from 8
// logical clients; the batched one keeps 4 envelopes in flight from 4, so
// on both sides every agreement batch holds a request from every client
// and closes without waiting out the batch timer. (Measured over 30 runs:
// 3.5x to 19x, median 11x; the spread is how many envelopes goroutine
// scheduling lets form before the first one ships. 2x leaves room for it.)
func TestBatchingThroughputGain(t *testing.T) {
	const n = 256
	op := make([]byte, 128)
	run := func(clients int, opts ...Option) (float64, uint64) {
		c := startSim(t, append(opts, WithApp("null"), WithClients(clients), WithInvokeTimeout(2*time.Minute))...)
		defer c.Close()
		cl := c.Client()
		// One warm-up round trip settles the view before the measured window.
		if _, err := cl.Invoke(context.Background(), op); err != nil {
			t.Fatal(err)
		}
		warm := cl.ClientStats().Batches
		rate := virtualThroughput(t, c, n, func(ctx context.Context) <-chan Result {
			return cl.InvokeAsync(ctx, op)
		})
		return rate, cl.ClientStats().Batches - warm
	}
	unbatched, _ := run(8)
	batched, batches := run(4, WithClientBatching(16, 0, 100*time.Microsecond), WithAdaptivePipeline(false))
	t.Logf("unbatched %.0f ops/s, batched %.0f ops/s (%.1fx, %d batches)",
		unbatched, batched, batched/unbatched, batches)
	if batched < 2*unbatched {
		t.Fatalf("client batching speedup = %.2fx, want >= 2x", batched/unbatched)
	}
	if batches == 0 || batches >= n {
		t.Fatalf("batches = %d for %d ops; coalescing did not happen", batches, n)
	}
}

// TestClosedLoopSkipsBatchTimer pins the agreement primary's batch cut: with
// as many logical clients as outstanding calls, every batch holds a request
// from every client and is proposed at once, so the mean virtual latency of
// a closed loop stays below the batch timer instead of paying it per call.
func TestClosedLoopSkipsBatchTimer(t *testing.T) {
	const clients, rounds = 8, 16
	const wait = 20 * time.Millisecond
	c := startSim(t, WithApp("null"), WithClients(clients), WithBatching(0, wait))
	cl := c.Client()
	ctx := context.Background()
	if _, err := cl.Invoke(ctx, []byte("warm-up")); err != nil {
		t.Fatal(err)
	}
	start, err := c.VirtualTime()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				if _, err := cl.Invoke(ctx, []byte("op")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	end, err := c.VirtualTime()
	if err != nil {
		t.Fatal(err)
	}
	// Closed loop: each client runs its calls back to back, so the mean
	// latency is the elapsed virtual time over the rounds.
	mean := (end - start) / rounds
	t.Logf("mean virtual latency %v with a %v batch timer", mean, wait)
	if mean >= wait {
		t.Fatalf("mean virtual latency %v, want below the %v batch timer", mean, wait)
	}
}

// TestBatchRepliesDemux proves that replies demultiplex to the correct
// caller when many distinct ops share envelopes, on both transports. CI
// runs it under -race.
func TestBatchRepliesDemux(t *testing.T) {
	for _, tr := range []struct {
		name string
		opts []Option
	}{
		{"sim", nil},
		{"tcp", []Option{WithTransport(TCPTransport())}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			n := 64
			if tr.name == "tcp" {
				n = 24 // real sockets; keep the point cheap
			}
			opts := append([]Option{
				WithAppFactory(echoApp()),
				WithClients(4),
				WithClientBatching(8, 0, 500*time.Microsecond),
			}, tr.opts...)
			c := startSim(t, opts...)
			cl := c.Client()
			ctx := context.Background()
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					op := []byte(fmt.Sprintf("op-%03d", i))
					reply, err := cl.Invoke(ctx, op)
					if err != nil {
						errs <- fmt.Errorf("op %d: %w", i, err)
						return
					}
					if want := "echo:" + string(op); string(reply) != want {
						errs <- fmt.Errorf("op %d got %q, want %q", i, reply, want)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := cl.ClientStats().BatchedOps; got != uint64(n) {
				t.Fatalf("BatchedOps = %d, want %d", got, n)
			}
		})
	}
}

// TestBatchFlushPartialBatch proves the flush interval dispatches a batch
// that never fills: three ops against maxOps=64 must still complete.
func TestBatchFlushPartialBatch(t *testing.T) {
	c := startSim(t,
		WithAppFactory(echoApp()),
		WithClients(2),
		WithClientBatching(64, 0, time.Millisecond),
	)
	cl := c.Client()
	ctx := context.Background()
	chans := make([]<-chan Result, 3)
	for i := range chans {
		chans[i] = cl.InvokeAsync(ctx, []byte(fmt.Sprintf("partial-%d", i)))
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("op %d: %v", i, res.Err)
			}
			if want := fmt.Sprintf("echo:partial-%d", i); string(res.Reply) != want {
				t.Fatalf("op %d reply = %q, want %q", i, res.Reply, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("op %d never flushed", i)
		}
	}
}

// TestOversizeOpPassesThrough proves a single op larger than maxBytes is
// not held hostage by the byte budget: it ships alone, effectively
// unbatched, while small ops keep coalescing around it.
func TestOversizeOpPassesThrough(t *testing.T) {
	c := startSim(t,
		WithAppFactory(echoApp()),
		WithClients(2),
		WithClientBatching(8, 128, time.Millisecond),
	)
	cl := c.Client()
	ctx := context.Background()
	big := bytes.Repeat([]byte("B"), 1024) // 8x the 128-byte budget
	small := []byte("small")
	bigCh := cl.InvokeAsync(ctx, big)
	smallCh := cl.InvokeAsync(ctx, small)
	if res := <-bigCh; res.Err != nil {
		t.Fatalf("oversize op: %v", res.Err)
	} else if !bytes.Equal(res.Reply, append([]byte("echo:"), big...)) {
		t.Fatalf("oversize reply = %d bytes %q...", len(res.Reply), res.Reply[:16])
	}
	if res := <-smallCh; res.Err != nil {
		t.Fatalf("small op: %v", res.Err)
	} else if string(res.Reply) != "echo:small" {
		t.Fatalf("small reply = %q", res.Reply)
	}
}

// TestMagicPrefixedOp proves ops that look like multi-op envelopes survive
// both the batched and unbatched paths (they are escaped end to end).
func TestMagicPrefixedOp(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			opts := []Option{WithAppFactory(echoApp()), WithClients(2)}
			if batched {
				opts = append(opts, WithClientBatching(4, 0, time.Millisecond))
			}
			c := startSim(t, opts...)
			op := wire.PackOps([][]byte{[]byte("looks-like-envelope")})
			reply, err := c.Client().Invoke(context.Background(), op)
			if err != nil {
				t.Fatal(err)
			}
			if want := append([]byte("echo:"), op...); !bytes.Equal(reply, want) {
				t.Fatalf("reply = %q, want the raw op echoed back", reply)
			}
		})
	}
}

// TestShutdownFailsQueuedOps proves the satellite fix: closing the cluster
// with ops still queued (batcher queue and in-flight) resolves every
// result channel with a terminal error instead of leaving callers hanging.
func TestShutdownFailsQueuedOps(t *testing.T) {
	c := startSim(t,
		WithApp("counter"),
		WithClients(1),
		WithClientBatching(1, 0, time.Millisecond), // one op per batch, width 1
	)
	sr, err := c.sim()
	if err != nil {
		t.Fatal(err)
	}
	// Park the driver: the first op is admitted and stuck in flight, the
	// rest pile up behind the single logical client.
	sr.holdStepping.Store(true)
	ctx := context.Background()
	cl := c.Client()
	const n = 6
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		chans[i] = cl.InvokeAsync(ctx, []byte("inc"))
	}
	time.Sleep(20 * time.Millisecond) // let the first dispatch reach the driver
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err == nil {
				t.Fatalf("op %d: completed after Close; want terminal error", i)
			}
			if !errors.Is(res.Err, ErrClosed) && !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("op %d: err = %v, want ErrClosed", i, res.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("op %d: result channel never resolved after Close", i)
		}
	}
	// A fresh call after close fails immediately.
	if _, err := cl.Invoke(ctx, []byte("inc")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Invoke after Close: err = %v, want ErrClosed", err)
	}
}

// TestBatchedCancellationResolvesPromptly proves a canceled context
// settles its op with ctx.Err() even while the op's batch is stuck in
// flight (the driver is parked), without waiting for the batch timeout.
func TestBatchedCancellationResolvesPromptly(t *testing.T) {
	c := startSim(t,
		WithApp("counter"),
		WithClients(1),
		WithClientBatching(4, 0, 100*time.Microsecond),
	)
	sr, err := c.sim()
	if err != nil {
		t.Fatal(err)
	}
	sr.holdStepping.Store(true)
	defer sr.holdStepping.Store(false)
	ctx, cancel := context.WithCancel(context.Background())
	ch := c.Client().InvokeAsync(ctx, []byte("inc"))
	time.Sleep(10 * time.Millisecond) // let the batch dispatch and stall
	cancel()
	select {
	case res := <-ch:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled op did not resolve while its batch was in flight")
	}
}

// TestAdaptiveWidthStaysBounded sanity-checks the controller: under load
// the dispatch width stays within [1, Pipeline] and ops all complete.
func TestAdaptiveWidthStaysBounded(t *testing.T) {
	const width = 8
	c := startSim(t,
		WithAppFactory(echoApp()),
		WithClients(width),
		WithClientBatching(4, 0, 200*time.Microsecond),
	)
	cl := c.Client()
	ctx := context.Background()
	const n = 96
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.Invoke(ctx, []byte(fmt.Sprintf("w-%d", i))); err != nil {
				errs <- err
			}
		}(i)
		if w := cl.ClientStats().PipelineWidth; w < 1 || w > width {
			t.Errorf("PipelineWidth = %d outside [1,%d]", w, width)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if w := cl.ClientStats().PipelineWidth; w < 1 || w > width {
		t.Fatalf("final PipelineWidth = %d outside [1,%d]", w, width)
	}
}
