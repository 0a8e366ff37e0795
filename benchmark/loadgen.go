package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/apps/kv"
	"repro/saebft"
)

// numWindows is how many equal windows the measured interval is cut into.
const numWindows = 6

// e2eSetups is how many times a reported end-to-end run sets its cluster up;
// setup_s is their median. Probes and tests, which do not report setup_s,
// set up once.
const e2eSetups = 5

// readBackKeys bounds the post-run read-back: up to that many of the keys
// the run touched (the head of the permutation) are read through agreement
// and compared with the model.
const readBackKeys = 512

// completion is one finished operation as the generator sees it.
type completion struct {
	op    genOp
	due   time.Time // when the operation was due (closed loop: when it was submitted)
	sent  time.Time // when the generator actually handed it to the client
	done  time.Time
	reply []byte
	err   error
}

// e2eResult is everything one end-to-end run measured.
type e2eResult struct {
	Workload string

	Attempted int // every operation submitted, warm-up and read-back included
	Failed    int // errors + wrong or stale replies + read-back mismatches
	FirstErr  string

	OverLimit   int         // open loop: correct completions inside the windows but past the limit
	WindowRates []float64   // ops/s per window (open loop: those within the limit)
	WindowLat   [][]float64 // ms, sorted, per window: every correct completion inside it
	WindowCPU   []float64   // ms of process user+sys per window
	Latencies   []float64   // ms, sorted: WindowLat pooled
	ReadLat     []float64   // ms, sorted
	WriteLat    []float64   // ms, sorted
	Lateness    []float64   // ms, sorted; open loop: actual send time minus due time
	MaxBacklog  int         // open loop: most operations sent and not yet completed

	AllocBytes uint64    // heap allocated over the windows
	PeakRSSMB  float64   // the process's high-water resident set, if this run raised it (else 0)
	Setups     []float64 // seconds, one per set-up made in this run

	// Public counters, as deltas over the windows.
	Stats  saebft.Stats
	Client saebft.ClientStats
}

func (r *e2eResult) throughput() float64 { return median(r.WindowRates) }

// windowPercentiles is the q-quantile of each window's latencies.
func (r *e2eResult) windowPercentiles(q float64) []float64 {
	out := make([]float64, len(r.WindowLat))
	for i, lat := range r.WindowLat {
		out[i] = percentile(lat, q)
	}
	return out
}

// windowCPUPerOp is each window's CPU milliseconds per completed operation.
func (r *e2eResult) windowCPUPerOp() []float64 {
	out := make([]float64, len(r.WindowLat))
	for i, lat := range r.WindowLat {
		out[i] = ratio(r.WindowCPU[i], float64(len(lat)))
	}
	return out
}

func (r *e2eResult) failedShare() float64 {
	return ratio(float64(r.Failed), float64(r.Attempted))
}
func (r *e2eResult) windowSpreadPct() float64 {
	lo, hi := minMax(r.WindowRates)
	return 100 * ratio(hi-lo, r.throughput())
}

// generator drives one cluster with the workload's operation stream and
// checks every reply against the model. All bookkeeping happens on the one
// goroutine that calls run; operations in flight wait on parked goroutines.
type generator struct {
	w      *workload
	s      *stream
	m      *model
	client *saebft.Client
	sess   *saebft.Session
	res    *e2eResult

	win      *windows
	done     chan completion
	inFlight int
	next     int // next stream index to submit
	stats    func() (saebft.Stats, saebft.ClientStats)

	// Samples at the numWindows+1 window edges, in order.
	edgeCPU              []time.Duration
	startAlloc, endAlloc uint64
	startStats, endStats saebft.Stats
	startCli, endCli     saebft.ClientStats
}

// fail records one failed or incorrect operation.
func (r *e2eResult) fail(format string, args ...any) {
	r.Failed++
	if r.FirstErr == "" {
		r.FirstErr = fmt.Sprintf(format, args...)
	}
}

// submit hands op to the cluster and parks a goroutine on its reply.
func (g *generator) submit(ctx context.Context, op genOp, due time.Time) {
	g.m.busy[op.Key] = true
	g.inFlight++
	g.res.Attempted++
	c := completion{op: op, due: due, sent: time.Now()}
	if g.sess == nil {
		ch := g.client.InvokeAsync(ctx, op.Body)
		go func() {
			r := <-ch
			c.done, c.reply, c.err = time.Now(), r.Reply, r.Err
			g.done <- c
		}()
		return
	}
	// The session API is synchronous, so each open-loop operation blocks
	// its own goroutine; arrivals stay independent of completions.
	go func() {
		if op.Kind == opGet {
			c.reply, c.err = g.sess.ReadCertified(ctx, op.Body)
		} else {
			c.reply, c.err = g.sess.Invoke(ctx, op.Body)
		}
		c.done = time.Now()
		g.done <- c
	}()
}

// sample reads the process's CPU time at every window edge, and the
// allocation and cluster counters at the first and last. It runs on the
// generator goroutine the first time that goroutine sees the clock past an
// edge, which is at most one reply later than the edge itself.
func (g *generator) sample(now time.Time) {
	for len(g.edgeCPU) <= numWindows && !now.Before(g.win.start.Add(time.Duration(len(g.edgeCPU))*g.win.length)) {
		g.edgeCPU = append(g.edgeCPU, cpuTime())
		switch len(g.edgeCPU) {
		case 1:
			g.startAlloc = allocBytes()
			g.startStats, g.startCli = g.stats()
		case numWindows + 1:
			g.endAlloc = allocBytes()
			g.endStats, g.endCli = g.stats()
		}
	}
}

// complete checks one reply and books it into the windows.
func (g *generator) complete(c completion) {
	g.inFlight--
	g.sample(c.done)
	if !g.m.check(c.op, c.reply, c.err) {
		if c.err != nil {
			g.res.fail("op %d: %v", c.op.Index, c.err)
		} else {
			g.res.fail("op %d (key %d): reply %q is not what the model expects", c.op.Index, c.op.Key, truncate(c.reply))
		}
		return
	}
	i := g.win.index(c.done)
	if i < 0 {
		return
	}
	lat := ms(c.done.Sub(c.due))
	g.res.WindowLat[i] = append(g.res.WindowLat[i], lat)
	if c.op.Kind == opGet {
		g.res.ReadLat = append(g.res.ReadLat, lat)
	} else {
		g.res.WriteLat = append(g.res.WriteLat, lat)
	}
	if g.w.Rate > 0 {
		g.res.Lateness = append(g.res.Lateness, ms(c.sent.Sub(c.due)))
		if c.done.Sub(c.due) > openLoopLimit {
			g.res.OverLimit++
			return
		}
	}
	g.win.counts[i]++
}

func truncate(b []byte) []byte {
	if len(b) > 32 {
		return b[:32]
	}
	return b
}

// waitKeyFree blocks until no operation on key is outstanding. The key
// permutation makes this a no-op unless an operation has been stuck for a
// whole cycle of the key space.
func (g *generator) waitKeyFree(key int) {
	for g.m.busy[key] {
		g.complete(<-g.done)
	}
}

// closedLoop keeps w.Outstanding operations in flight until the measured
// interval ends, then drains.
func (g *generator) closedLoop(ctx context.Context) {
	end := g.win.end()
	for {
		now := time.Now()
		g.sample(now)
		if !now.Before(end) {
			break
		}
		for g.inFlight < g.w.Outstanding {
			op := g.s.at(g.next)
			g.waitKeyFree(op.Key)
			g.next++
			g.submit(ctx, op, time.Now())
		}
		g.complete(<-g.done)
	}
	g.drain()
}

// openLoop submits operation i at start+i/rate whether or not earlier ones
// have completed, and times each from its due time, so a stall delays (and
// is charged to) every operation due during it.
func (g *generator) openLoop(ctx context.Context, start time.Time) {
	end := g.win.end()
	interval := time.Duration(float64(time.Second) / g.w.Rate)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Now()
		g.sample(now)
		if !now.Before(end) {
			break
		}
		due := start.Add(time.Duration(g.next) * interval)
		if !due.After(now) {
			op := g.s.at(g.next)
			g.waitKeyFree(op.Key)
			g.next++
			g.submit(ctx, op, due)
			if g.inFlight > g.res.MaxBacklog {
				g.res.MaxBacklog = g.inFlight
			}
			continue
		}
		timer.Reset(due.Sub(now))
		select {
		case c := <-g.done:
			g.complete(c)
		case <-timer.C:
		}
	}
	g.drain()
}

func (g *generator) drain() {
	for g.inFlight > 0 {
		g.complete(<-g.done)
	}
	g.sample(time.Now())
}

// readBack reads the first keys the run touched through full agreement,
// pipelined, and compares each with the model: a put that was acknowledged
// but is not in the state shows up here.
func (g *generator) readBack(ctx context.Context) {
	n := min(readBackKeys, len(g.s.perm), g.next)
	type pending struct {
		key int
		ch  <-chan saebft.Result
	}
	width := max(g.w.Outstanding, g.w.Clients)
	var queue []pending
	check := func(p pending) {
		r := <-p.ch
		switch {
		case r.Err != nil:
			g.res.fail("read-back of key %d: %v", p.key, r.Err)
		case !g.m.check(genOp{Kind: opGet, Key: p.key}, r.Reply, nil):
			g.res.fail("read-back of key %d does not match the acknowledged puts", p.key)
		}
	}
	for i := 0; i < n; i++ {
		key := g.s.perm[i]
		g.res.Attempted++
		queue = append(queue, pending{key, g.client.InvokeAsync(ctx, kv.GetOp(keyName(key)))})
		if len(queue) >= width {
			check(queue[0])
			queue = queue[1:]
		}
	}
	for _, p := range queue {
		check(p)
	}
}

// runE2E performs one end-to-end run of the workload: extra set-ups (so
// setup_s is a median, not one sample), the measured run, the read-back.
func runE2E(w *workload, seed int64, seconds float64, setups int, extra ...saebft.Option) (*e2eResult, error) {
	s := newStream(seed, w.Keys, w.ValueSize, w.ReadShare)
	res := &e2eResult{Workload: w.Name}
	ctx := context.Background()
	rssBefore := peakRSSMB()

	var c *cluster
	for i := 0; i < setups; i++ {
		if c != nil {
			c.Close()
		}
		var err error
		if c, err = w.startCluster(s, seed, extra...); err != nil {
			return nil, err
		}
		// The first certified reply ends set-up: it proves the nodes are
		// connected and the preloaded state is being served.
		begin := time.Now()
		reply, err := c.Client().Invoke(ctx, kv.GetOp(keyName(0)))
		c.SetupS += time.Since(begin).Seconds()
		res.Attempted++
		if err != nil || string(reply) != string(s.value(0, 0)) {
			res.fail("set-up probe: reply %q, error %v", truncate(reply), err)
		}
		res.Setups = append(res.Setups, c.SetupS)
	}
	defer c.Close()

	g := &generator{
		w: w, s: s, m: newModel(s), client: c.Client(), res: res,
		done: make(chan completion, max(w.Outstanding, 1024)),
		stats: func() (saebft.Stats, saebft.ClientStats) {
			st, _ := c.Stats()
			return st, c.Client().ClientStats()
		},
	}
	if w.Rate > 0 {
		g.sess = c.Client().Session()
	}
	warm := time.Duration(seconds / 10 * float64(time.Second))
	length := time.Duration(seconds / numWindows * float64(time.Second))
	start := time.Now()
	g.win = newWindows(start.Add(warm), numWindows, length)
	res.WindowLat = make([][]float64, numWindows)
	if w.Rate > 0 {
		g.openLoop(ctx, start)
	} else {
		g.closedLoop(ctx)
	}
	g.readBack(ctx)

	res.WindowRates = g.win.rates()
	for i, lat := range res.WindowLat {
		sort.Float64s(lat)
		res.Latencies = append(res.Latencies, lat...)
		res.WindowCPU = append(res.WindowCPU, ms(g.edgeCPU[i+1]-g.edgeCPU[i]))
	}
	res.AllocBytes = g.endAlloc - g.startAlloc
	if after := peakRSSMB(); after > rssBefore {
		res.PeakRSSMB = after
	}
	res.Stats = statsDelta(g.endStats, g.startStats)
	res.Client = clientDelta(g.endCli, g.startCli)
	sort.Float64s(res.Latencies)
	sort.Float64s(res.ReadLat)
	sort.Float64s(res.WriteLat)
	sort.Float64s(res.Lateness)
	if st, err := c.Stats(); err == nil && st.StorageFailures > 0 {
		res.fail("%d replicas fail-stopped on a storage error", st.StorageFailures)
	}
	return res, nil
}

// statsDelta subtracts the counters the per-layer report reads.
func statsDelta(end, start saebft.Stats) saebft.Stats {
	d := end
	d.Retransmits -= start.Retransmits
	d.Link.FramesSent -= start.Link.FramesSent
	d.Link.BytesSent -= start.Link.BytesSent
	d.Link.FramesDropped -= start.Link.FramesDropped
	return d
}

func clientDelta(end, start saebft.ClientStats) saebft.ClientStats {
	d := end
	d.Batches -= start.Batches
	d.BatchedOps -= start.BatchedOps
	d.Reads -= start.Reads
	d.ReadsCertified -= start.ReadsCertified
	d.ReadRetries -= start.ReadRetries
	d.ReadFallbacks -= start.ReadFallbacks
	return d
}
