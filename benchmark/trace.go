package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mqueue"
	"repro/internal/pbft"
	"repro/internal/replycert"
	"repro/internal/sm"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// tracedRequests is how many client requests the traced pass submits. It is
// fixed (not timed) so every count the pass reports repeats exactly for a
// seed. A request is one operation, or one 16-operation envelope on the
// batching workload: with fewer than 64 agreement slots that workload would
// never reach a checkpoint, which is the cost it exists to show.
const tracedRequests = 4000

func (w *workload) tracedOps() int { return tracedRequests * max(1, w.BatchOps) }

// Layers a span's self time is charged to. They are the repository's
// modules; wire appears only where the benchmark's own agreement dispatch
// calls wire.Unmarshal itself (elsewhere decoding happens inside the layer).
const (
	layerClient   = "client"
	layerPBFT     = "pbft"
	layerMqueue   = "mqueue"
	layerExecnode = "execnode"
	layerFirewall = "firewall"
	layerApp      = "app"
	layerStorage  = "storage"
	layerWire     = "wire"
)

// spanKind names one call boundary the traced pass wraps.
type spanKind uint8

const (
	spAgreementDeliver spanKind = iota
	spWireUnmarshal
	spPBFTReceive
	spPBFTTick
	spMqueueExecReply
	spMqueueReplyCert
	spMqueueTick
	spExecDeliver
	spExecTick
	spFirewallDeliver
	spFirewallTick
	spClientDeliver
	spClientTick
	spClientSubmit
	spAppExecute
	spAppCheckpoint
	spAppQuery
	spStorageAppend
	spStorageSync
	spStorageSaveCheckpoint
)

// spanKinds gives each boundary its name and the layer its self time is
// charged to. The agreement node's dispatch is charged to pbft: it is a few
// nanoseconds of glue around the engine.
var spanKinds = [...]struct{ name, layer string }{
	spAgreementDeliver:      {"agreement.deliver", layerPBFT},
	spWireUnmarshal:         {"wire.unmarshal", layerWire},
	spPBFTReceive:           {"pbft.receive", layerPBFT},
	spPBFTTick:              {"pbft.tick", layerPBFT},
	spMqueueExecReply:       {"mqueue.on_exec_reply", layerMqueue},
	spMqueueReplyCert:       {"mqueue.on_reply_cert", layerMqueue},
	spMqueueTick:            {"mqueue.tick", layerMqueue},
	spExecDeliver:           {"execnode.deliver", layerExecnode},
	spExecTick:              {"execnode.tick", layerExecnode},
	spFirewallDeliver:       {"firewall.deliver", layerFirewall},
	spFirewallTick:          {"firewall.tick", layerFirewall},
	spClientDeliver:         {"client.deliver", layerClient},
	spClientTick:            {"client.tick", layerClient},
	spClientSubmit:          {"client.submit", layerClient},
	spAppExecute:            {"app.execute", layerApp},
	spAppCheckpoint:         {"app.checkpoint", layerApp},
	spAppQuery:              {"app.query", layerApp},
	spStorageAppend:         {"storage.append", layerStorage},
	spStorageSync:           {"storage.sync", layerStorage},
	spStorageSaveCheckpoint: {"storage.save_checkpoint", layerStorage},
}

// span is one timed call across a layer boundary. It holds no pointers, so
// the half million of them a pass keeps cost the garbage collector nothing
// to scan.
type span struct {
	kind    spanKind
	msg     wire.MsgType // message that caused a deliver span; 0 for none
	node    int32        // -1 where the callee does not know its node (the application)
	parent  int32        // index of the enclosing span, -1 at the top
	start   int64        // wall-clock ns since the pass began
	end     int64
	child   int64  // ns covered by child spans
	virtual int64  // simulated time of the event, ns
	id      uint64 // agreement sequence number, or the client's request timestamp or read nonce
}

func (s *span) self() int64 { return s.end - s.start - s.child }

// spanJSON is the -trace-out form of a span.
type spanJSON struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Node    int32  `json:"node"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
	Parent  int32  `json:"parent"`
	Msg     string `json:"msg,omitempty"`
	ID      uint64 `json:"id,omitempty"`
	Virtual int64  `json:"virtual_ns"`
}

// recorder keeps the spans of one traced pass in memory. Everything runs on
// the one goroutine that steps the simulator, so it needs no locking and the
// open spans form a stack. With timing off it is the pass-through the
// overhead measurement compares against: wrappers still sit in the call
// path, but take no timestamps and keep nothing.
type recorder struct {
	timing  bool
	origin  time.Time
	virtual types.Time
	spans   []span
	open    []int
}

func newRecorder(timing bool) *recorder {
	r := &recorder{timing: timing}
	if timing {
		r.spans = make([]span, 0, 1<<19)
	}
	return r
}

// begin opens a span and returns its handle (-1 with timing off).
func (r *recorder) begin(kind spanKind, node types.NodeID) int {
	if !r.timing {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = int32(r.open[n-1])
	}
	r.spans = append(r.spans, span{kind: kind, node: int32(node), parent: parent, virtual: int64(r.virtual)})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	r.spans[i].start = int64(time.Since(r.origin))
	return i
}

func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(r.origin))
	s := &r.spans[i]
	s.end = now
	r.open = r.open[:len(r.open)-1]
	if s.parent >= 0 {
		r.spans[s.parent].child += now - s.start
	}
}

// annotate labels span i with the message that caused it.
func (r *recorder) annotate(i int, msg wire.Message) {
	if i < 0 || msg == nil {
		return
	}
	s := &r.spans[i]
	s.msg = msg.Type()
	switch m := msg.(type) {
	case *wire.Request:
		s.id = uint64(m.Timestamp)
	case *wire.PrePrepare:
		s.id = uint64(m.Seq)
	case *wire.Prepare:
		s.id = uint64(m.Seq)
	case *wire.Commit:
		s.id = uint64(m.Seq)
	case *wire.Order:
		s.id = uint64(m.Seq)
	case *wire.ExecReply:
		if len(m.Entries) > 0 {
			s.id = uint64(m.Entries[0].Seq)
		}
	case *wire.ReplyCert:
		s.id = uint64(m.MaxSeq())
	case *wire.ReadRequest:
		s.id = uint64(m.Nonce)
	case *wire.ReadReply:
		s.id = uint64(m.Nonce)
	}
}

// writeSpans dumps the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		sp := &r.spans[i]
		out := spanJSON{
			Name: spanKinds[sp.kind].name, Layer: spanKinds[sp.kind].layer, Node: sp.node,
			Start: sp.start, End: sp.end, Self: sp.self(), Parent: sp.parent, ID: sp.id, Virtual: sp.virtual,
		}
		if sp.msg != 0 {
			out.Msg = sp.msg.String()
		}
		if err := enc.Encode(&out); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedNode wraps a node whose Deliver and Tick are each one span: the
// execution replicas, the filters and the clients.
type tracedNode struct {
	rec           *recorder
	id            types.NodeID
	deliver, tick spanKind
	inner         transport.Node
}

func (n *tracedNode) Deliver(from types.NodeID, data []byte, now types.Time) {
	n.rec.virtual = now
	var msg wire.Message
	if n.rec.timing {
		// Decoded a second time, outside the span, only to label it.
		msg, _ = wire.Unmarshal(data)
	}
	s := n.rec.begin(n.deliver, n.id)
	n.inner.Deliver(from, data, now)
	n.rec.end(s)
	n.rec.annotate(s, msg)
}

func (n *tracedNode) Tick(now types.Time) {
	n.rec.virtual = now
	s := n.rec.begin(n.tick, n.id)
	n.inner.Tick(now)
	n.rec.end(s)
}

// tracedAgreement is the benchmark's copy of core.AgreementNode's dispatch,
// so that the engine and the message queue get spans of their own.
// mqueue.Queue.Execute (the order fan-out) is called by the engine and stays
// inside the pbft span.
type tracedAgreement struct {
	rec    *recorder
	id     types.NodeID
	engine *pbft.Replica
	queue  *mqueue.Queue
}

func (n *tracedAgreement) Deliver(from types.NodeID, data []byte, now types.Time) {
	n.rec.virtual = now
	root := n.rec.begin(spAgreementDeliver, n.id)
	u := n.rec.begin(spWireUnmarshal, n.id)
	msg, err := wire.Unmarshal(data)
	n.rec.end(u)
	if err != nil {
		n.rec.end(root)
		return
	}
	switch m := msg.(type) {
	case *wire.ExecReply:
		s := n.rec.begin(spMqueueExecReply, n.id)
		n.queue.OnExecReply(m, now)
		n.rec.end(s)
	case *wire.ReplyCert:
		s := n.rec.begin(spMqueueReplyCert, n.id)
		n.queue.OnReplyCert(m, now)
		n.rec.end(s)
	default:
		s := n.rec.begin(spPBFTReceive, n.id)
		n.engine.Receive(from, msg, now)
		n.rec.end(s)
	}
	n.rec.end(root)
	n.rec.annotate(root, msg)
}

func (n *tracedAgreement) Tick(now types.Time) {
	n.rec.virtual = now
	s := n.rec.begin(spMqueueTick, n.id)
	n.queue.Tick(now)
	n.rec.end(s)
	s = n.rec.begin(spPBFTTick, n.id)
	n.engine.Tick(now)
	n.rec.end(s)
}

// tracedApp times the state machine. It forwards sm.Querier, without which
// the executors refuse certified reads.
type tracedApp struct {
	rec   *recorder
	inner sm.StateMachine

	ckptBytes int
}

func (a *tracedApp) Execute(op []byte, nd types.NonDet) []byte {
	s := a.rec.begin(spAppExecute, -1)
	out := a.inner.Execute(op, nd)
	a.rec.end(s)
	return out
}

func (a *tracedApp) Checkpoint() []byte {
	s := a.rec.begin(spAppCheckpoint, -1)
	out := a.inner.Checkpoint()
	a.rec.end(s)
	a.ckptBytes += len(out)
	return out
}

func (a *tracedApp) Restore(data []byte) error { return a.inner.Restore(data) }

func (a *tracedApp) Query(op []byte) ([]byte, bool) {
	q, ok := a.inner.(sm.Querier)
	if !ok {
		return nil, false
	}
	s := a.rec.begin(spAppQuery, -1)
	out, ok := q.Query(op)
	a.rec.end(s)
	return out, ok
}

// tracedStore times the three storage calls on the request path and counts
// them; the recovery-time calls pass through the embedded store.
type tracedStore struct {
	storage.Store
	rec *recorder
	id  types.NodeID
	c   *storeCounts
}

type storeCounts struct {
	appends, syncs, saves int
	bytes                 int
}

func (t *tracedStore) Append(kind storage.RecordKind, seq types.SeqNum, payload []byte) error {
	s := t.rec.begin(spStorageAppend, t.id)
	err := t.Store.Append(kind, seq, payload)
	t.rec.end(s)
	t.c.appends++
	t.c.bytes += len(payload)
	return err
}

func (t *tracedStore) Sync() error {
	s := t.rec.begin(spStorageSync, t.id)
	err := t.Store.Sync()
	t.rec.end(s)
	t.c.syncs++
	return err
}

func (t *tracedStore) SaveCheckpoint(ck storage.Checkpoint) error {
	s := t.rec.begin(spStorageSaveCheckpoint, t.id)
	err := t.Store.SaveCheckpoint(ck)
	t.rec.end(s)
	t.c.saves++
	return err
}

// traffic counts attempted sends by the sender's role (SimNet.Tap).
type traffic struct {
	msgs, bytes [4]int // indexed by types.Role
}

// harness is one traced deployment: the workload's cluster assembled from
// internal/core on a SimNet, every node swapped for its wrapper.
type harness struct {
	w    *workload
	s    *stream
	rec  *recorder
	c    *core.Cluster
	apps []*tracedApp
	sc   storeCounts
	tr   traffic
	dir  string
}

func newHarness(w *workload, seed int64, timing bool) (*harness, error) {
	h := &harness{
		w:   w,
		s:   newStream(seed, w.Keys, w.ValueSize, w.ReadShare),
		rec: newRecorder(timing),
	}
	app := func() sm.StateMachine {
		a := &tracedApp{rec: h.rec, inner: h.s.preloaded()}
		h.apps = append(h.apps, a)
		return a
	}
	var store storage.Factory
	if w.Durable {
		dir, err := scratchDir()
		if err != nil {
			return nil, err
		}
		h.dir = dir
		store = func(id types.NodeID) (storage.Store, error) {
			st, err := storage.Open(filepath.Join(dir, fmt.Sprintf("node-%d", id)), storage.Options{Fsync: storage.FsyncBatch})
			if err != nil {
				return nil, err
			}
			return &tracedStore{Store: st, rec: h.rec, id: id, c: &h.sc}, nil
		}
	}
	c, err := core.BuildSim(w.coreOptions(seed, app, store))
	if err != nil {
		h.close()
		return nil, err
	}
	h.c = c
	for id, a := range c.Agreement {
		c.Net.Swap(id, &tracedAgreement{rec: h.rec, id: id, engine: a.Engine, queue: a.Queue})
	}
	for id, ex := range c.Execs {
		c.Net.Swap(id, &tracedNode{rec: h.rec, id: id, deliver: spExecDeliver, tick: spExecTick, inner: ex})
	}
	for id, fl := range c.Filters {
		c.Net.Swap(id, &tracedNode{rec: h.rec, id: id, deliver: spFirewallDeliver, tick: spFirewallTick, inner: fl})
	}
	for i, cl := range c.Clients {
		id := c.Top.Clients[i]
		c.Net.Swap(id, &tracedNode{rec: h.rec, id: id, deliver: spClientDeliver, tick: spClientTick, inner: cl})
	}
	c.Net.Tap(func(from, to types.NodeID, data []byte) {
		if role, _, ok := c.Top.RoleOf(from); ok {
			h.tr.msgs[role]++
			h.tr.bytes[role] += len(data)
		}
	})
	return h, nil
}

func (h *harness) close() {
	if h.c != nil {
		h.c.Shutdown()
	}
	if h.dir != "" {
		os.RemoveAll(h.dir)
	}
}

// slot is one logical client of the traced pass and what it is waiting for.
type slot struct {
	cl     *core.Client
	id     types.NodeID
	busy   bool
	ops    []genOp // one operation, or the envelope's
	isRead bool
	due    types.Time // fault probe: when the operation was due
}

// passResult is what driving a harness to completion yields.
type passResult struct {
	Ops       int // operations certified and model-correct
	Reads     int // of those, served by the certified read path
	Attempted int
	Failed    int
	FirstErr  string
	Wall      time.Duration
	UserCPU   time.Duration // process user-mode CPU over the pass
	Slots     uint64        // agreement batches the primary committed
}

func (p *passResult) fail(format string, args ...any) {
	p.Failed++
	if p.FirstErr == "" {
		p.FirstErr = fmt.Sprintf(format, args...)
	}
}

// driver submits the stream through the harness's clients and checks the
// replies. schedule, when non-nil, holds operation i back until virtual
// time schedule(i) (the fault probe's open loop); otherwise every client
// submits its next operation as soon as its last completes.
type driver struct {
	h         *harness
	m         *model
	res       passResult
	slots     []*slot
	watermark types.SeqNum // highest sequence a write certified at: the floor of later reads
	ops       []genOp      // the whole stream, generated before the clock starts
	next      int
	schedule  func(i int) types.Time
	onStep    func(now types.Time)           // before every simulator step
	onDone    func(sl *slot, now types.Time) // after every model-correct completion
}

// streamOps materialises the first n operations of the harness's stream.
func (h *harness) streamOps(n int) []genOp {
	ops := make([]genOp, n)
	for i := range ops {
		ops[i] = h.s.at(i)
	}
	return ops
}

func newDriver(h *harness, m *model, ops []genOp) *driver {
	d := &driver{h: h, m: m, ops: ops}
	for i, cl := range h.c.Clients {
		sl := &slot{cl: cl, id: h.c.Top.Clients[i]}
		d.slots = append(d.slots, sl)
		cl.SetOnResult(func(body []byte, seq types.SeqNum) { d.onResult(sl, body, seq) })
		cl.SetOnReadDone(func(out core.ReadOutcome) { d.onRead(sl, out) })
	}
	return d
}

func (d *driver) finish(sl *slot, ok bool) {
	sl.busy = false
	if ok && d.onDone != nil {
		d.onDone(sl, d.h.c.Net.Now())
	}
}

func (d *driver) onResult(sl *slot, body []byte, seq types.SeqNum) {
	if seq > d.watermark {
		d.watermark = seq
	}
	bodies := [][]byte{body}
	if d.h.w.BatchOps > 0 {
		var err error
		if bodies, err = replycert.SplitOpReplies(body, len(sl.ops)); err != nil {
			for _, op := range sl.ops {
				d.m.check(op, nil, err)
				d.res.fail("op %d: %v", op.Index, err)
			}
			d.finish(sl, false)
			return
		}
	}
	ok := true
	for i, op := range sl.ops {
		if d.m.check(op, bodies[i], nil) {
			d.res.Ops++
		} else {
			ok = false
			d.res.fail("op %d (key %d): reply %q is not what the model expects", op.Index, op.Key, truncate(bodies[i]))
		}
	}
	d.finish(sl, ok)
}

func (d *driver) onRead(sl *slot, out core.ReadOutcome) {
	op := sl.ops[0]
	if out.Err != nil || out.Result.Refused {
		// The public handle would retry at the hint and then fall back to
		// agreement; in the deterministic pass neither should ever happen.
		d.m.check(op, nil, fmt.Errorf("certified read did not certify: %v", out.Err))
		d.res.fail("op %d: certified read did not certify (err %v)", op.Index, out.Err)
		d.finish(sl, false)
		return
	}
	ok := d.m.check(op, out.Result.Body, nil)
	if ok {
		d.res.Ops++
		d.res.Reads++
	} else {
		d.res.fail("op %d (key %d): certified read returned %q, not what the model expects", op.Index, op.Key, truncate(out.Result.Body))
	}
	d.finish(sl, ok)
}

// requestSize is how many operations the next request carries: one, or an
// envelope's worth on the batching workload.
func (d *driver) requestSize() int {
	return min(max(1, d.h.w.BatchOps), len(d.ops)-d.next)
}

// submit sends the next operation (or envelope) of the stream from sl.
func (d *driver) submit(sl *slot) {
	h, now := d.h, d.h.c.Net.Now()
	n := d.requestSize()
	sl.ops = sl.ops[:0]
	for i := 0; i < n; i++ {
		op := d.ops[d.next]
		d.next++
		d.m.busy[op.Key] = true
		sl.ops = append(sl.ops, op)
	}
	d.res.Attempted += n
	sl.busy = true
	sl.isRead = n == 1 && sl.ops[0].Kind == opGet && h.w.ReadShare > 0
	if d.schedule != nil {
		sl.due = d.schedule(sl.ops[0].Index)
	}
	// Packing the envelope is the client-side batcher's work, so it is
	// inside the client's span.
	h.rec.virtual = now
	s := h.rec.begin(spClientSubmit, sl.id)
	body := sl.ops[0].Body
	if h.w.BatchOps > 0 {
		bodies := make([][]byte, n)
		for i, op := range sl.ops {
			bodies[i] = op.Body
		}
		body = wire.PackOps(bodies)
	}
	var err error
	if sl.isRead {
		err = sl.cl.SubmitRead(body, d.watermark, now)
	} else {
		err = sl.cl.Submit(body, now)
	}
	h.rec.end(s)
	if err != nil {
		for _, op := range sl.ops {
			d.m.check(op, nil, err)
			d.res.fail("op %d: submit: %v", op.Index, err)
		}
		sl.busy = false
	}
}

// keysFree reports whether the next operation's key has nothing outstanding.
func (d *driver) keysFree() bool {
	for i := 0; i < d.requestSize(); i++ {
		if d.m.busy[d.ops[d.next+i].Key] {
			return false
		}
	}
	return true
}

// run drives the simulator until every operation has completed. The
// virtual deadline only guards against a wedged cluster.
func (d *driver) run() {
	net := d.h.c.Net
	d.h.rec.origin = time.Now()
	begin, beginCPU := time.Now(), userCPUTime()
	deadline := net.Now() + types.Time(10*time.Minute)
	for {
		busy := 0
		for _, sl := range d.slots {
			if !sl.busy && d.next < len(d.ops) && d.keysFree() &&
				(d.schedule == nil || d.schedule(d.next) <= net.Now()) {
				d.submit(sl)
			}
			if sl.busy {
				busy++
			}
		}
		if busy == 0 && d.next >= len(d.ops) {
			break
		}
		if d.onStep != nil {
			d.onStep(net.Now())
		}
		if net.Now() > deadline || !net.Step() {
			d.res.fail("traced pass wedged at virtual %v with %d operations outstanding", time.Duration(net.Now()), busy)
			break
		}
	}
	d.res.Wall, d.res.UserCPU = time.Since(begin), userCPUTime()-beginCPU
	primary := d.h.c.Engines[d.h.c.Top.Agreement[0]]
	d.res.Slots = primary.Metrics.Batches
}

// layerBudget is the traced pass's accounting of one layer or one kind of
// span: time net of child spans, time including them, and how many spans.
type layerBudget struct {
	self, total int64 // ns
	spans       int
}

// tracedPass runs the workload's traced pass with pass-through wrappers,
// then with timing wrappers, and derives the per-layer metrics from the
// second. The overhead of tracing is the difference in user-mode CPU between
// the two, not in wall time: two identical passes of the durable workload
// differ by 15-30% in wall time and kernel CPU (the second finds the
// filesystem busy discarding the first's files), and by under 1% in user CPU.
func tracedPass(w *workload, seed int64, traceOut string) (*passResult, []metric, error) {
	plain, err := runPass(w, seed, w.tracedOps(), false, "")
	if err != nil {
		return nil, nil, err
	}
	timed, err := runPass(w, seed, w.tracedOps(), true, traceOut)
	if err != nil {
		return nil, nil, err
	}
	res := timed.res
	res.Attempted += plain.res.Attempted
	res.Failed += plain.res.Failed
	if res.FirstErr == "" {
		res.FirstErr = plain.res.FirstErr
	}
	ms := timed.metrics()
	ms = append(ms, metric{
		Name: "trace.overhead_pct", Unit: "%", N: 2,
		Value: 100 * ratio(float64(timed.res.UserCPU-plain.res.UserCPU), float64(plain.res.UserCPU)),
	})
	return &res, ms, nil
}

// pass is one completed drive of a harness.
type pass struct {
	h   *harness
	res passResult
}

func runPass(w *workload, seed int64, ops int, timing bool, traceOut string) (*pass, error) {
	h, err := newHarness(w, seed, timing)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
	}
	defer h.close()
	d := newDriver(h, newModel(h.s), h.streamOps(ops))
	// Start every pass from a collected heap: the collector paces itself by
	// the live heap at the last cycle, so a pass that follows a large
	// end-to-end cluster would otherwise collect less often than the pass
	// after it, and the two would not be comparable.
	runtime.GC()
	d.run()
	if traceOut != "" && timing {
		if err := h.rec.writeSpans(traceOut); err != nil {
			return nil, err
		}
	}
	return &pass{h: h, res: d.res}, nil
}

// metrics turns the spans and counters of a timed pass into the per-layer
// metrics. "Per op" divides by the operations the pass committed.
func (p *pass) metrics() []metric {
	h, ops := p.h, float64(p.res.Ops)
	top := h.c.Top
	var kinds [len(spanKinds)]layerBudget
	var total, primary, readBusy int64
	for i := range h.rec.spans {
		s := &h.rec.spans[i]
		self := s.self()
		total += self
		kinds[s.kind].self += self
		kinds[s.kind].total += s.end - s.start
		kinds[s.kind].spans++
		if spanKinds[s.kind].layer == layerPBFT && types.NodeID(s.node) == top.Agreement[0] {
			primary += self
		}
		if s.kind == spExecDeliver && s.msg == wire.TReadRequest {
			readBusy += self
		}
	}
	execTotal := kinds[spExecDeliver].total + kinds[spExecTick].total
	syncTotal, saveTotal, ckptTotal := kinds[spStorageSync].total, kinds[spStorageSaveCheckpoint].total, kinds[spAppCheckpoint].total
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	msf := func(ns int64) float64 { return float64(ns) / 1e6 }
	busy := func(layer string) metric {
		var b layerBudget
		for k := range kinds {
			if spanKinds[k].layer == layer {
				b.self += kinds[k].self
				b.spans += kinds[k].spans
			}
		}
		return metric{Name: layer + ".busy_us_per_op", Unit: "us", Value: ratio(us(b.self), ops), N: b.spans}
	}
	ckpts, ckptBytes := kinds[spAppCheckpoint].spans, 0
	for _, a := range h.apps {
		ckptBytes += a.ckptBytes
	}
	n := int(ops)
	allMsgs, allBytes := 0, 0
	for r := range h.tr.msgs {
		allMsgs += h.tr.msgs[r]
		allBytes += h.tr.bytes[r]
	}
	perOp := func(name, unit string, count int) metric {
		return metric{Name: name, Unit: unit, Value: ratio(float64(count), ops), N: n}
	}
	return []metric{
		busy(layerClient),
		busy(layerPBFT),
		{Name: "pbft.primary_busy_us_per_op", Unit: "us", Value: ratio(us(primary), ops), N: n},
		{Name: "pbft.ops_per_slot", Unit: "count", Value: ratio(ops-float64(p.res.Reads), float64(p.res.Slots)), N: int(p.res.Slots)},
		perOp("pbft.msgs_per_op", "count", h.tr.msgs[types.RoleAgreement]),
		perOp("pbft.bytes_per_op", "bytes", h.tr.bytes[types.RoleAgreement]),
		busy(layerMqueue),
		busy(layerExecnode),
		perOp("execnode.msgs_per_op", "count", h.tr.msgs[types.RoleExecution]),
		perOp("execnode.bytes_per_op", "bytes", h.tr.bytes[types.RoleExecution]),
		{Name: "execnode.read_busy_us_per_read", Unit: "us", Value: ratio(us(readBusy), float64(p.res.Reads)), N: p.res.Reads},
		{Name: "app.execute_us_per_op", Unit: "us", Value: ratio(us(kinds[spAppExecute].self), ops), N: kinds[spAppExecute].spans},
		{Name: "app.checkpoint_ms", Unit: "ms", Value: ratio(msf(ckptTotal), float64(ckpts)), N: ckpts},
		{Name: "app.checkpoint_bytes", Unit: "bytes", Value: ratio(float64(ckptBytes), float64(ckpts)), N: ckpts},
		{Name: "app.checkpoint_share", Unit: "ratio", Value: ratio(float64(ckptTotal), float64(execTotal)), N: ckpts},
		perOp("storage.appends_per_op", "count", h.sc.appends),
		perOp("storage.syncs_per_op", "count", h.sc.syncs),
		perOp("storage.bytes_per_op", "bytes", h.sc.bytes),
		{Name: "storage.append_us_per_op", Unit: "us", Value: ratio(us(kinds[spStorageAppend].self), ops), N: h.sc.appends},
		{Name: "storage.sync_us_per_op", Unit: "us", Value: ratio(us(syncTotal), ops), N: h.sc.syncs},
		{Name: "storage.sync_ms_mean", Unit: "ms", Value: ratio(msf(syncTotal), float64(h.sc.syncs)), N: h.sc.syncs},
		{Name: "storage.ckpt_save_ms", Unit: "ms", Value: ratio(msf(saveTotal), float64(h.sc.saves)), N: h.sc.saves},
		busy(layerFirewall),
		perOp("firewall.msgs_per_op", "count", h.tr.msgs[types.RoleFilter]),
		perOp("transport.msgs_per_op", "count", allMsgs),
		perOp("transport.bytes_per_op", "bytes", allBytes),
		{Name: "trace.coverage", Unit: "ratio", Value: ratio(float64(total), float64(p.res.Wall)), N: len(h.rec.spans)},
	}
}
