package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/saebft"
)

// TestMain keeps the durable workload's WAL and checkpoint files out of the
// source tree: the tests run in this directory.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "saebft-benchmark-")
	if err != nil {
		panic(err)
	}
	scratchRoot = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.91, 10}, {0, 1}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an odd count = %v, want 5", got)
	}
}

func TestWindowsAssignByCompletionTime(t *testing.T) {
	start := time.Unix(100, 0)
	w := newWindows(start, 3, 2*time.Second)
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Nanosecond, -1}, // warm-up
		{0, 0},
		{2*time.Second - 1, 0},
		{2 * time.Second, 1},
		{6*time.Second - 1, 2},
		{6 * time.Second, -1}, // drain
	} {
		if got := w.index(start.Add(c.at)); got != c.want {
			t.Errorf("index(start+%v) = %d, want %d", c.at, got, c.want)
		}
	}
	w.counts = []int{10, 20, 40}
	if got := w.rates(); got[0] != 5 || got[1] != 10 || got[2] != 20 {
		t.Errorf("rates = %v, want [5 10 20]", got)
	}
	if !w.end().Equal(start.Add(6 * time.Second)) {
		t.Errorf("end = %v", w.end())
	}
}

// testGenerator is a generator with no cluster behind it, for feeding
// hand-made completions through the accounting.
func testGenerator(w *workload, start time.Time, length time.Duration) *generator {
	s := newStream(1, 16, 8, w.ReadShare)
	res := &e2eResult{WindowLat: make([][]float64, numWindows)}
	return &generator{
		w: w, s: s, m: newModel(s), res: res,
		win:   newWindows(start, numWindows, length),
		stats: func() (saebft.Stats, saebft.ClientStats) { return saebft.Stats{}, saebft.ClientStats{} },
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(100, 0)
	g := testGenerator(&workload{Rate: 1000}, start, time.Second)
	op := g.s.at(0)
	due := start.Add(100 * time.Millisecond)
	g.inFlight = 3

	// Due at +100ms, sent 4ms late, answered 10ms after it was due: the
	// latency is 10ms (not 6), the lateness 4ms.
	g.complete(completion{op: op, due: due, sent: due.Add(4 * time.Millisecond), done: due.Add(10 * time.Millisecond), reply: replyOK})
	// Answered 60ms after its due time: correct, in the latency
	// distribution, but past the limit so not throughput.
	op2 := g.s.at(1)
	g.complete(completion{op: op2, due: due, sent: due, done: due.Add(60 * time.Millisecond), reply: replyOK})
	// Completed during warm-up: checked but not measured.
	op3 := g.s.at(2)
	g.complete(completion{op: op3, due: start.Add(-time.Second), sent: start.Add(-time.Second), done: start.Add(-time.Millisecond), reply: replyOK})

	if g.res.Failed != 0 {
		t.Fatalf("failed = %d (%s)", g.res.Failed, g.res.FirstErr)
	}
	if got := g.res.WindowLat[0]; len(got) != 2 || math.Abs(got[0]-10) > 1e-9 || math.Abs(got[1]-60) > 1e-9 {
		t.Errorf("window 0 latencies = %v, want [10 60]", got)
	}
	if got := g.res.Lateness; len(got) != 2 || math.Abs(got[0]-4) > 1e-9 || got[1] != 0 {
		t.Errorf("lateness = %v, want [4 0]", got)
	}
	if g.win.counts[0] != 1 || g.res.OverLimit != 1 {
		t.Errorf("within limit = %d, over limit = %d, want 1 and 1", g.win.counts[0], g.res.OverLimit)
	}
	if g.inFlight != 0 {
		t.Errorf("inFlight = %d, want 0", g.inFlight)
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := newStream(7, 100, 64, 0.5), newStream(7, 100, 64, 0.5), newStream(8, 100, 64, 0.5)
	differs := false
	gets := 0
	for i := 0; i < 1000; i++ {
		x, y, z := a.at(i), b.at(i), c.at(i)
		if x.Kind != y.Kind || x.Key != y.Key || x.Version != y.Version || !bytes.Equal(x.Body, y.Body) {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
		differs = differs || !bytes.Equal(x.Body, z.Body)
		if x.Kind == opGet {
			gets++
		}
	}
	if !differs {
		t.Error("streams of different seeds are identical")
	}
	if gets < 400 || gets > 600 {
		t.Errorf("%d of 1000 operations are reads at a read share of 0.5", gets)
	}
	// No key repeats within one cycle of the key space.
	seen := map[int]int{}
	for i := 0; i < 300; i++ {
		k := a.at(i).Key
		if last, ok := seen[k]; ok && i-last < 100 {
			t.Fatalf("key %d repeats after %d operations, before the cycle of 100 ends", k, i-last)
		}
		seen[k] = i
	}
}

func TestModelCatchesWrongReplies(t *testing.T) {
	s := newStream(3, 8, 32, 0)
	m := newModel(s)
	put := s.at(0)
	get := genOp{Kind: opGet, Key: put.Key}

	if !m.check(get, s.value(put.Key, 0), nil) {
		t.Error("the preloaded value is rejected before any put")
	}
	if m.check(put, []byte("NO"), nil) {
		t.Error("a put acknowledged with the wrong body is accepted")
	}
	if !m.check(put, replyOK, nil) {
		t.Error("a correct put reply is rejected")
	}
	if !m.check(get, s.value(put.Key, put.Version), nil) {
		t.Error("the value just put is rejected")
	}
	if m.check(get, s.value(put.Key, 0), nil) {
		t.Error("a stale read (the preloaded value after an acknowledged put) is accepted")
	}
	wrong := s.value(put.Key, put.Version)
	wrong[0] ^= 1
	if m.check(get, wrong, nil) {
		t.Error("a read with one flipped bit is accepted")
	}
	if m.check(get, nil, errors.New("timeout")) {
		t.Error("a failed operation is accepted")
	}
	// A failed put leaves the key's value unknown: reads of it cannot be
	// judged until a later put succeeds.
	m.check(s.at(8), nil, errors.New("timeout"))
	if !m.tainted[put.Key] || !m.check(get, []byte("anything"), nil) {
		t.Error("a key with a failed put is still being judged")
	}
}

func TestWorseByFollowsTheDirection(t *testing.T) {
	up, down := bound{higher: true}, bound{}
	if got := worseBy(up, 100, 90); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("throughput 100 -> 90 is worse by %v, want 0.10", got)
	}
	if got := worseBy(down, 10, 11); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("latency 10 -> 11 is worse by %v, want 0.10", got)
	}
	if got := worseBy(down, 10, 9); got >= 0 {
		t.Errorf("latency 10 -> 9 is worse by %v, want an improvement", got)
	}
	if got := worseBy(down, 0, 0.01); !math.IsInf(got, 1) {
		t.Errorf("failed_share 0 -> 0.01 is worse by %v, want +Inf", got)
	}
}

// TestSmoke runs every workload end to end for most of a second (all four at
// once, so the package stays under tier-1's five seconds): each must come up,
// answer every operation as the model expects and read back clean.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r, err := runE2E(w, 1, 0.6, 1)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 {
				t.Fatalf("%d of %d operations failed; first: %s", r.Failed, r.Attempted, r.FirstErr)
			}
			if len(r.Latencies) == 0 {
				t.Fatal("nothing was measured")
			}
			for _, m := range e2eMetrics(r) {
				// The median window can be empty when four clusters
				// share a slow machine for 0.1s windows; the rest cannot.
				if m.Name != "failed_share" && m.Name != "throughput_ops_s" && !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", m.Name, m.Value)
				}
			}
		})
	}
}

// TestTracedCountsRepeat runs a short traced pass twice per workload: the
// counts must be identical, the replies model-correct, and the layers that
// a workload bypasses must show no work.
func TestTracedCountsRepeat(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var runs [2]map[string]float64
			for k := range runs {
				p, err := runPass(w, 1, 96, true, "")
				if err != nil {
					t.Fatal(err)
				}
				if p.res.Failed != 0 || p.res.Ops != 96 {
					t.Fatalf("%d of 96 operations certified, %d failed; first: %s", p.res.Ops, p.res.Failed, p.res.FirstErr)
				}
				runs[k] = map[string]float64{}
				for _, m := range p.metrics() {
					runs[k][m.Name] = m.Value
				}
			}
			for _, name := range []string{
				"pbft.msgs_per_op", "pbft.bytes_per_op", "pbft.ops_per_slot", "execnode.msgs_per_op",
				"firewall.msgs_per_op", "transport.msgs_per_op", "storage.appends_per_op", "storage.syncs_per_op",
			} {
				if runs[0][name] != runs[1][name] {
					t.Errorf("%s = %v then %v on one seed", name, runs[0][name], runs[1][name])
				}
			}
			m := runs[0]
			if (m["storage.appends_per_op"] > 0) != w.Durable {
				t.Errorf("storage.appends_per_op = %v on a workload with Durable=%v", m["storage.appends_per_op"], w.Durable)
			}
			if (m["firewall.busy_us_per_op"] > 0) != (w.Mode == saebft.ModeFirewall) {
				t.Errorf("firewall.busy_us_per_op = %v in mode %v", m["firewall.busy_us_per_op"], w.Mode)
			}
			if (m["execnode.read_busy_us_per_read"] > 0) != (w.ReadShare > 0) {
				t.Errorf("execnode.read_busy_us_per_read = %v at read share %v", m["execnode.read_busy_us_per_read"], w.ReadShare)
			}
			if m["trace.coverage"] < 0.5 || m["trace.coverage"] > 1 {
				t.Errorf("trace.coverage = %v", m["trace.coverage"])
			}
		})
	}
}

// TestFaultProbe crashes the primary a fifth of a second into a short
// schedule: service must resume in a later view with no acknowledged put lost.
func TestFaultProbe(t *testing.T) {
	res, ms, err := faultProbe(1, 600, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Ops != 600 {
		t.Fatalf("%d of 600 operations certified, %d failed; first: %s", res.Ops, res.Failed, res.FirstErr)
	}
	for _, m := range ms {
		if !(m.Value > 0) {
			t.Errorf("%s = %v, want a positive value", m.Name, m.Value)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json, which the driver reads, in
// step with the tables this program runs from.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	units := map[string]string{}
	for _, m := range e2eMetrics(&e2eResult{}) {
		units[m.Name] = m.Unit
	}
	declared := map[string]bool{}
	for _, m := range doc.EndToEnd {
		declared[m.Name] = true
		var bd *bound
		for i := range bounds {
			if bounds[i].name == m.Name {
				bd = &bounds[i]
			}
		}
		switch {
		case bd == nil:
			t.Errorf("BENCHMARK.json gates %s, which the program does not report", m.Name)
		case bd.share != m.Bound || bd.higher != (m.Better == "higher") || units[m.Name] != m.Unit:
			t.Errorf("%s: BENCHMARK.json says %s, %s, bound %v; the program says %s, higher=%v, bound %v",
				m.Name, m.Unit, m.Better, m.Bound, units[m.Name], bd.higher, bd.share)
		}
	}
	for _, bd := range bounds {
		// failed_share is expected to be exactly 0, which a relative bound
		// cannot gate; the contract line's attempted and failed carry it.
		if !declared[bd.name] && bd.name != "failed_share" {
			t.Errorf("the program reports %s, which BENCHMARK.json does not gate", bd.name)
		}
	}
}
