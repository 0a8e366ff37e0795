package saebft

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startDurable builds and starts a cluster persisting under dir. TCP
// clusters pick free ports by listen-then-close, which can race other
// sockets on a busy machine; bind collisions get a fresh attempt.
func startDurable(t *testing.T, dir string, extra ...Option) *Cluster {
	t.Helper()
	opts := append([]Option{
		WithApp("counter"),
		WithSeed("recovery-test"),
		WithDataDir(dir),
		WithCheckpointInterval(8),
		WithInvokeTimeout(time.Minute),
	}, extra...)
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		c, err := NewCluster(opts...)
		if err != nil {
			t.Fatal(err)
		}
		err = c.Start(context.Background())
		if err == nil {
			return c
		}
		c.Close()
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	t.Fatal(lastErr)
	return nil
}

func invokeString(t *testing.T, c *Cluster, op string) string {
	t.Helper()
	reply, err := c.Client().Invoke(context.Background(), []byte(op))
	if err != nil {
		t.Fatalf("invoke %q: %v", op, err)
	}
	return string(reply)
}

// TestRecoverySequentialCounter is the headline crash-recovery property on
// both transports: every acknowledged operation survives kill -9 of every
// node at once, and none is re-executed. The counter makes both failure
// modes visible — a lost increment or a replayed one both break the final
// value. The run crosses several checkpoint boundaries (interval 8) so the
// restart restores a stable checkpoint and replays a WAL tail.
func TestRecoverySequentialCounter(t *testing.T) {
	cases := map[string]func() []Option{
		"sim": func() []Option { return []Option{WithTransport(SimTransport())} },
		"tcp": func() []Option { return []Option{WithTransport(TCPTransport())} },
		// The coupled baseline persists too: the engine's WAL + checkpoint
		// wrap its execution replica's state instead of the message queue's.
		"base-sim": func() []Option {
			return []Option{WithTransport(SimTransport()), WithMode(ModeBase)}
		},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			dir := recoveryDir(t, "seq-"+name)
			const before, after = 21, 12

			c1 := startDurable(t, dir, opts()...)
			for i := 0; i < before; i++ {
				if got := invokeString(t, c1, "inc"); got != fmt.Sprint(i+1) {
					t.Fatalf("pre-crash inc %d: got %q", i, got)
				}
			}
			c1.kill() // abrupt: no store flush, like kill -9 on every process

			c2 := startDurable(t, dir, opts()...)
			defer c2.Close()
			for i := 0; i < after; i++ {
				got := invokeString(t, c2, "inc")
				want := fmt.Sprint(before + i + 1)
				if got != want {
					t.Fatalf("post-restart inc %d: got %q, want %q (lost or re-executed ops)", i, got, want)
				}
			}
			if got := invokeString(t, c2, "get"); got != fmt.Sprint(before+after) {
				t.Fatalf("final value %q, want %d", got, before+after)
			}
		})
	}
}

// TestRecoveryRandomKillKV kills the cluster at pseudo-random points with
// concurrent batched writes in flight — mid-batch, before and after
// checkpoint boundaries — then restarts, idempotently re-issues every
// write, and asserts the state matches an uninterrupted run. Acknowledged
// writes must never be lost; unacknowledged ones may or may not have
// executed, which idempotent re-issue absorbs.
func TestRecoveryRandomKillKV(t *testing.T) {
	const keys = 36
	for _, ackBeforeKill := range []int{0, 5, 19, 33} {
		t.Run(fmt.Sprintf("kill-after-%d-acks", ackBeforeKill), func(t *testing.T) {
			dir := recoveryDir(t, fmt.Sprintf("kv-%d", ackBeforeKill))
			opt := func() []Option {
				return []Option{
					WithApp("kv"),
					WithClients(8),
					WithClientBatching(8, 0, 100*time.Microsecond),
				}
			}
			c1 := startDurable(t, dir, opt()...)
			ctx := context.Background()
			acked := make(chan int, keys)
			var wg sync.WaitGroup
			for i := 0; i < keys; i++ {
				op, err := EncodeOp("kv", "put", fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				ch := c1.Client().InvokeAsync(ctx, op)
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if res := <-ch; res.Err == nil {
						acked <- i
					}
				}(i)
			}
			for n := 0; n < ackBeforeKill; n++ {
				select {
				case <-acked:
				case <-time.After(time.Minute):
					t.Fatalf("timed out waiting for ack %d", n)
				}
			}
			c1.kill()
			wg.Wait() // the rest resolve with errors; none may hang

			c2 := startDurable(t, dir, opt()...)
			defer c2.Close()
			// Idempotent re-issue of the full write set.
			var wg2 sync.WaitGroup
			errc := make(chan error, keys)
			for i := 0; i < keys; i++ {
				op, err := EncodeOp("kv", "put", fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				ch := c2.Client().InvokeAsync(ctx, op)
				wg2.Add(1)
				go func(i int) {
					defer wg2.Done()
					if res := <-ch; res.Err != nil {
						errc <- fmt.Errorf("re-issue key-%d: %w", i, res.Err)
					}
				}(i)
			}
			wg2.Wait()
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			// Final state must equal the uninterrupted run's.
			for i := 0; i < keys; i++ {
				op, err := EncodeOp("kv", "get", fmt.Sprintf("key-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				reply, err := c2.Client().Invoke(ctx, op)
				if err != nil {
					t.Fatalf("get key-%d: %v", i, err)
				}
				if got, want := string(reply), fmt.Sprintf("value-%d", i); got != want {
					t.Fatalf("key-%d: got %q, want %q", i, got, want)
				}
			}
		})
	}
}

// TestRecoveryRandomKillAgreementOrdering extends the random-kill property
// runs beyond execution state: an agreement replica (a backup in one
// variant, the view-0 primary — forcing a mid-load view change — in the
// other) is crashed while per-key sequential write streams are in flight,
// more writes are acknowledged in the degraded cluster, and then every node
// is killed at once and restarted over the same directories. Each key's
// stream awaits the ack of version j before issuing j+1, so agreement-level
// loss or reordering is directly observable: after the restart every key
// must hold exactly its last acknowledged version or the single in-flight
// successor — never less (a lost acknowledged op) and never more (a
// re-executed or re-ordered one).
func TestRecoveryRandomKillAgreementOrdering(t *testing.T) {
	const keys, versions = 10, 4
	val := func(j int) string { return fmt.Sprintf("v%03d", j) }
	for name, victim := range map[string]int{"backup": 3, "primary": 0} {
		t.Run(name, func(t *testing.T) {
			dir := recoveryDir(t, "agree-"+name)
			opt := func() []Option { return []Option{WithApp("kv"), WithClients(8)} }
			c1 := startDurable(t, dir, opt()...)
			ctx := context.Background()

			acked := make([]atomic.Int32, keys)
			issued := make([]atomic.Int32, keys)
			var totalAcks atomic.Int32
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < keys; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 1; j <= versions; j++ {
						select {
						case <-stop:
							return
						default:
						}
						op, err := EncodeOp("kv", "put", fmt.Sprintf("key-%d", i), val(j))
						if err != nil {
							t.Error(err)
							return
						}
						issued[i].Store(int32(j))
						if _, err := c1.Client().Invoke(ctx, op); err != nil {
							return // killed mid-stream; j stays in flight
						}
						acked[i].Store(int32(j))
						totalAcks.Add(1)
					}
				}(i)
			}
			// waitAcks deadlines on progress, not total elapsed time. The
			// cluster paces itself in virtual time, so on a loaded 1-CPU
			// -race machine the wall clock needed for n acks grows without
			// bound while the run stays perfectly healthy; a fixed total
			// deadline here conflated that slowness with a stall and made
			// the test flake under parallel package load. A genuine
			// liveness failure still fails: a full minute with no new ack.
			waitAcks := func(n int32) {
				last := totalAcks.Load()
				stall := time.Now()
				for {
					cur := totalAcks.Load()
					if cur >= n {
						return
					}
					if cur != last {
						last, stall = cur, time.Now()
					}
					if time.Since(stall) > time.Minute {
						t.Fatalf("acks stalled at %d/%d for a minute", cur, n)
					}
					time.Sleep(time.Millisecond)
				}
			}
			// Crash one agreement replica under load, then require the
			// degraded cluster (and, for the primary variant, the new
			// view) to acknowledge more writes before the full kill.
			waitAcks(5)
			if err := c1.CrashAgreement(victim); err != nil {
				t.Fatal(err)
			}
			waitAcks(2 * keys)
			close(stop)
			c1.kill()
			wg.Wait()

			// Restart everything — including the long-crashed agreement
			// replica, whose WAL is a stale but valid prefix.
			c2 := startDurable(t, dir, opt()...)
			defer c2.Close()
			for i := 0; i < keys; i++ {
				getOp, err := EncodeOp("kv", "get", fmt.Sprintf("key-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				reply, err := c2.Client().Invoke(ctx, getOp)
				if err != nil {
					t.Fatalf("get key-%d: %v", i, err)
				}
				final := 0
				if len(reply) > 0 {
					if _, err := fmt.Sscanf(string(reply), "v%03d", &final); err != nil {
						t.Fatalf("key-%d holds foreign value %q", i, reply)
					}
				}
				a, is := int(acked[i].Load()), int(issued[i].Load())
				if final < a {
					t.Fatalf("key-%d: acknowledged version %d lost (found %d)", i, a, final)
				}
				if final > is {
					t.Fatalf("key-%d: version %d appeared but only %d were issued (re-ordered or re-executed)", i, final, is)
				}
				// Drive the stream to completion; the cluster must accept
				// the remaining versions in order.
				for j := final + 1; j <= versions; j++ {
					op, err := EncodeOp("kv", "put", fmt.Sprintf("key-%d", i), val(j))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := c2.Client().Invoke(ctx, op); err != nil {
						t.Fatalf("re-issue key-%d v%d: %v", i, j, err)
					}
				}
				reply, err = c2.Client().Invoke(ctx, getOp)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := string(reply), val(versions); got != want {
					t.Fatalf("key-%d: final %q, want %q", i, got, want)
				}
			}
		})
	}
}

// TestRecoveryTornWALTail corrupts the WAL tail of one agreement and one
// execution replica after the crash (a torn final record and raw garbage —
// what an interrupted write leaves behind). Both nodes must truncate the
// tail and catch up from peers instead of crashing or diverging, and the
// cluster must keep its acknowledged state.
func TestRecoveryTornWALTail(t *testing.T) {
	dir := recoveryDir(t, "torn")
	const before, after = 13, 9

	c1 := startDurable(t, dir)
	for i := 0; i < before; i++ {
		invokeString(t, c1, "inc")
	}
	c1.kill()

	// node-0 is an agreement replica, node-100 an execution replica (one
	// of each role stays within the fault thresholds even if truncation
	// costs them their tails).
	tearWALTail(t, filepath.Join(dir, "node-0", "wal"), 5)
	tearWALTail(t, filepath.Join(dir, "node-100", "wal"), 5)
	appendGarbage(t, filepath.Join(dir, "node-100", "wal"))

	c2 := startDurable(t, dir)
	defer c2.Close()
	for i := 0; i < after; i++ {
		got := invokeString(t, c2, "inc")
		if want := fmt.Sprint(before + i + 1); got != want {
			t.Fatalf("post-torn inc %d: got %q, want %q", i, got, want)
		}
	}
}

// TestGracefulRestartFlushesWithoutFsync proves the Close path flushes
// buffered state even under FsyncNone: a graceful shutdown plus restart
// resumes exactly, because Close drains the WAL buffers to the OS.
func TestGracefulRestartFlushesWithoutFsync(t *testing.T) {
	dir := recoveryDir(t, "graceful")
	cfg := StorageConfig{DataDir: dir, Fsync: FsyncNone}
	const before, after = 10, 5

	c1 := startDurable(t, dir, WithStorage(cfg))
	for i := 0; i < before; i++ {
		invokeString(t, c1, "inc")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := startDurable(t, dir, WithStorage(cfg))
	defer c2.Close()
	if got := invokeString(t, c2, "get"); got != fmt.Sprint(before) {
		t.Fatalf("after graceful restart: counter %q, want %d", got, before)
	}
	for i := 0; i < after; i++ {
		invokeString(t, c2, "inc")
	}
	if got := invokeString(t, c2, "get"); got != fmt.Sprint(before+after) {
		t.Fatalf("final value %q, want %d", got, before+after)
	}
}

// recoveryDir places data under SAEBFT_RECOVERY_DIR when set (CI uploads it
// as a debugging artifact on failure), else under the test temp dir.
func recoveryDir(t *testing.T, name string) string {
	t.Helper()
	if root := os.Getenv("SAEBFT_RECOVERY_DIR"); root != "" {
		dir := filepath.Join(root, t.Name(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return filepath.Join(t.TempDir(), name)
}

// tearWALTail chops n bytes off a node's newest WAL segment, leaving a
// record cut mid-frame.
func tearWALTail(t *testing.T, walDir string, n int64) {
	t.Helper()
	seg := newestSegment(t, walDir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() <= n {
		t.Fatalf("segment %s too small to tear (%d bytes)", seg, info.Size())
	}
	if err := os.Truncate(seg, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func appendGarbage(t *testing.T, walDir string) {
	t.Helper()
	f, err := os.OpenFile(newestSegment(t, walDir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0xba, 0xdb, 0xad, 0xba, 0xdb}); err != nil {
		t.Fatal(err)
	}
}

func newestSegment(t *testing.T, walDir string) string {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments in %s", walDir)
	}
	sort.Strings(segs)
	return filepath.Join(walDir, segs[len(segs)-1])
}
