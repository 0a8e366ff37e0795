package main

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/replycert"
	"repro/internal/sm"
	"repro/internal/storage"
	"repro/internal/threshold"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// The micro pass times each layer's primitives on their own, on fixed
// inputs, by calling the exported functions the protocol nodes call. Every
// number is the median of per-call timings: at least microMinCalls calls, or
// as many as fit in microBudget for the slow ones.
const (
	microMinCalls = 1000
	microBudget   = time.Second
)

// timeCalls runs fn until it has microMinCalls samples or the budget is
// spent (but at least five times) and returns the median in nanoseconds.
// Calls faster than the clock's resolution are timed in groups of `group`.
func timeCalls(group int, fn func()) (medianNs float64, n int) {
	samples := make([]float64, 0, microMinCalls)
	begin := time.Now()
	for len(samples) < microMinCalls && (len(samples) < 5 || time.Since(begin) < microBudget) {
		t := time.Now()
		for i := 0; i < group; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t))/float64(group))
	}
	sort.Float64s(samples)
	return percentile(samples, 0.5), len(samples) * group
}

// allocsPerCall is the heap allocations one call of fn makes, averaged over
// n calls. Nothing else runs during the micro pass, so the process-wide
// counter is the call's own.
func allocsPerCall(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

type microBench struct {
	name  string
	unit  string  // "ns", "us" or "ms"
	group int     // calls per timestamp pair; 0 means 1
	fn    func()  // the timed call
	value float64 // set instead of fn for numbers that are not timings
	n     int
}

func (b *microBench) run() metric {
	if b.fn == nil {
		return metric{Name: b.name, Unit: b.unit, Value: b.value, N: b.n}
	}
	ns, n := timeCalls(max(b.group, 1), b.fn)
	return metric{Name: b.name, Unit: b.unit, Value: ns / nsPerUnit[b.unit], N: n}
}

var nsPerUnit = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// must aborts the micro pass on a set-up error: its inputs are fixed, so an
// error here is a bug in the benchmark or an API change, not a measurement.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("micro pass set-up: %v", err))
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(fmt.Sprintf("micro pass: %v", err))
	}
}

// microPass returns the micro metrics. It recovers set-up panics into an
// error so a broken primitive fails the command instead of crashing it.
func microPass() (ms []metric, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	var benches []microBench
	benches = append(benches, microAuth()...)
	benches = append(benches, microWire()...)
	benches = append(benches, microReplycert()...)
	benches = append(benches, microThreshold()...)
	benches = append(benches, microSeal()...)
	sb, closeStorage := microStorage()
	defer closeStorage()
	benches = append(benches, sb)
	tb, closeTransport := microTransport()
	defer closeTransport()
	benches = append(benches, tb...)
	for i := range benches {
		ms = append(ms, benches[i].run())
	}
	return ms, nil
}

// microWorld is the separated f=g=1 topology with one client and the
// benchmark's fixed key material.
func microWorld() *core.Builder {
	return must(core.NewBuilder(core.Options{
		Mode: core.ModeSeparate, Clients: 1, Seed: keySeed,
		App: func() sm.StateMachine { return kv.New() },
	}))
}

var microDigest = types.DigestBytes([]byte("saebft-benchmark micro pass"))

func microAuth() []microBench {
	b := microWorld()
	top := b.Top
	signer, verifier := b.Mat.SigScheme(top.Agreement[0]), b.Mat.SigScheme(top.Agreement[1])
	sig := must(signer.Attest(auth.KindPrepare, microDigest, top.Agreement))
	macA, macB := b.Mat.MACScheme(top.Agreement[0], top.Agreement), b.Mat.MACScheme(top.Agreement[1], top.Agreement)
	vec := must(macA.Attest(auth.KindPrepare, microDigest, top.Agreement))
	return []microBench{
		{name: "auth.ed25519_attest_us", unit: "us", fn: func() {
			_, err := signer.Attest(auth.KindPrepare, microDigest, top.Agreement)
			check(err)
		}},
		{name: "auth.ed25519_verify_us", unit: "us", fn: func() { check(verifier.Verify(auth.KindPrepare, microDigest, sig)) }},
		{name: "auth.mac_attest_us", unit: "us", group: 16, fn: func() {
			_, err := macA.Attest(auth.KindPrepare, microDigest, top.Agreement)
			check(err)
		}},
		{name: "auth.mac_verify_us", unit: "us", group: 16, fn: func() { check(macB.Verify(auth.KindPrepare, microDigest, vec)) }},
	}
}

// microRequests builds n signed 128-byte put requests from one client.
func microRequests(b *core.Builder, n int) []wire.Request {
	s := newStream(1, n, 128, 0)
	client := b.Top.Clients[0]
	scheme := b.Mat.SigScheme(client)
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{Client: client, Timestamp: types.Timestamp(i + 1), Op: s.at(i).Body, ReplyTo: b.Top.Agreement[0]}
		reqs[i].Att = must(scheme.Attest(auth.KindRequest, reqs[i].Digest(), b.Top.Agreement))
	}
	return reqs
}

func microWire() []microBench {
	b := microWorld()
	reqs := microRequests(b, 16)
	req := &reqs[0]
	reqBytes := wire.Marshal(req)
	pp := &wire.PrePrepare{View: 0, Seq: 1, Requests: reqs, Primary: b.Top.Agreement[0]}
	pp.Att = must(b.Mat.SigScheme(b.Top.Agreement[0]).Attest(auth.KindPrePrepare, pp.OrderDigest(), b.Top.Agreement))
	ppBytes := wire.Marshal(pp)
	unmarshal := func(data []byte) func() {
		return func() {
			_, err := wire.Unmarshal(data)
			check(err)
		}
	}
	allocs := allocsPerCall(200, unmarshal(ppBytes))
	return []microBench{
		{name: "wire.marshal_request_ns", unit: "ns", group: 64, fn: func() { wire.Marshal(req) }},
		{name: "wire.unmarshal_request_ns", unit: "ns", group: 64, fn: unmarshal(reqBytes)},
		{name: "wire.unmarshal_preprepare16_us", unit: "us", group: 16, fn: unmarshal(ppBytes)},
		{name: "wire.unmarshal_preprepare16_allocs", unit: "count", value: allocs, n: 200},
	}
}

func microReplycert() []microBench {
	b := microWorld()
	top := b.Top
	client := top.Clients[0]
	entries := []wire.Reply{{View: 0, Seq: 1, Client: client, Timestamp: 1, Body: replyOK}}
	dests := append([]types.NodeID{client}, top.Agreement...)
	quorum := top.ExecutionQuorum()
	shares := make([]*wire.ExecReply, quorum)
	reads := make([]*wire.ReadReply, quorum)
	for i := range shares {
		exec := top.Execution[i]
		att := must(b.Mat.MACScheme(exec, top.AllNodes()).Attest(auth.KindReply, wire.BundleDigest(entries), dests))
		shares[i] = &wire.ExecReply{Entries: entries, Executor: exec, Att: att}
		rr := &wire.ReadReply{Client: client, Nonce: 7, AppliedSeq: 5, Body: make([]byte, 128), Executor: exec}
		rr.Att = must(b.Mat.SigScheme(exec).Attest(auth.KindReadReply, rr.Digest(), []types.NodeID{client}))
		reads[i] = rr
	}
	v := replycert.NewVerifier(replycert.ModeQuorum, top, b.Mat.MACScheme(client, top.AllNodes()), nil)
	assemble := func() *wire.ReplyCert {
		a := replycert.NewAssembler(v)
		var cert *wire.ReplyCert
		for _, sh := range shares {
			cert = must(a.Add(sh))
		}
		if cert == nil {
			panic("micro pass: g+1 shares did not assemble a certificate")
		}
		return cert
	}
	cert := assemble()
	rv := replycert.NewReadVerifier(top, b.Mat.SigScheme(client))
	return []microBench{
		{name: "replycert.assemble_quorum_us", unit: "us", group: 8, fn: func() { assemble() }},
		{name: "replycert.verify_cert_us", unit: "us", group: 8, fn: func() { check(v.VerifyCert(cert)) }},
		{name: "replycert.read_assemble_us", unit: "us", fn: func() {
			a := replycert.NewReadAssembler(rv, client, 7, 0)
			var res *replycert.ReadResult
			for _, rr := range reads {
				res = must(a.Add(rr))
			}
			if res == nil {
				panic("micro pass: g+1 read replies did not certify")
			}
		}},
	}
}

func microThreshold() []microBench {
	deal := func(bits int) (*threshold.PublicKey, []*threshold.KeyShare) {
		pub, shares, err := threshold.Deal(threshold.NewSeededReader(fmt.Sprintf("%s-micro-%d", keySeed, bits)), bits, 2, 3)
		check(err)
		return pub, shares
	}
	pub, shares := deal(512)
	_, shares1024 := deal(1024)
	rng := threshold.NewSeededReader(keySeed + "-micro-shares")
	s0, s1 := must(shares[0].Sign(rng, microDigest)), must(shares[1].Sign(rng, microDigest))
	sig := must(pub.Combine(microDigest, []*threshold.SigShare{s0, s1}))
	return []microBench{
		{name: "threshold.sign_ms", unit: "ms", fn: func() {
			_, err := shares[0].Sign(rng, microDigest)
			check(err)
		}},
		{name: "threshold.verify_share_ms", unit: "ms", fn: func() { check(pub.VerifyShare(microDigest, s0)) }},
		{name: "threshold.combine_ms", unit: "ms", fn: func() {
			_, err := pub.Combine(microDigest, []*threshold.SigShare{s0, s1})
			check(err)
		}},
		{name: "threshold.verify_ms", unit: "ms", fn: func() { check(pub.Verify(microDigest, sig)) }},
		{name: "threshold.sign_1024_ms", unit: "ms", fn: func() {
			_, err := shares1024[0].Sign(rng, microDigest)
			check(err)
		}},
	}
}

func microSeal() []microBench {
	b := microWorld()
	sealer := must(b.Mat.Sealer(b.Top.Clients[0]))
	plain := kv.Put(keyName(1), make([]byte, 128))
	sealed := must(sealer.SealRequest(rand.Reader, plain))
	return []microBench{
		{name: "seal.seal_request_us", unit: "us", group: 16, fn: func() {
			_, err := sealer.SealRequest(rand.Reader, plain)
			check(err)
		}},
		{name: "seal.open_request_us", unit: "us", group: 16, fn: func() {
			out, err := sealer.OpenRequest(sealed)
			check(err)
			if !bytes.Equal(out, plain) {
				panic("micro pass: sealed request did not open to its plaintext")
			}
		}},
	}
}

// microStorage times one durable write: Append of a 1 KiB record plus the
// Sync that makes it stable, on a store opened under the scratch directory.
func microStorage() (microBench, func()) {
	dir := must(scratchDir())
	st := must(storage.Open(filepath.Join(dir, "node-0"), storage.Options{Fsync: storage.FsyncBatch}))
	record := make([]byte, 1024)
	seq := types.SeqNum(0)
	return microBench{name: "storage.append_sync_us", unit: "us", fn: func() {
			seq++
			check(st.Append(storage.RecOrder, seq, record))
			check(st.Sync())
		}}, func() {
			st.Close()
			os.RemoveAll(dir)
		}
}

// pingPong sets up two TCPNet endpoints on loopback; the returned function
// sends one 256-byte frame from a to b and waits for b's echo.
func pingPong(sec func(types.NodeID) *transport.Security) (func(), func()) {
	a, b := types.NodeID(0), types.NodeID(1)
	// Fixed ports from the benchmark's own block, for the reason basePort gives.
	port := basePort()
	addrs := map[types.NodeID]string{
		a: fmt.Sprintf("127.0.0.1:%d", port),
		b: fmt.Sprintf("127.0.0.1:%d", port+1),
	}
	opts := func(id types.NodeID) transport.TCPOptions {
		if sec == nil {
			return transport.TCPOptions{}
		}
		return transport.TCPOptions{Security: sec(id)}
	}
	echoed := make(chan struct{}, 1)
	var nb *transport.TCPNet
	na := must(transport.NewTCPNetOpts(a, addrs, func(types.NodeID, []byte) { echoed <- struct{}{} }, opts(a)))
	nb = must(transport.NewTCPNetOpts(b, addrs, func(from types.NodeID, data []byte) { nb.Send(from, data) }, opts(b)))
	na.SetLogf(func(string, ...interface{}) {})
	nb.SetLogf(func(string, ...interface{}) {})
	frame := make([]byte, 256)
	rtt := func() {
		na.Send(b, frame)
		select {
		case <-echoed:
		case <-time.After(5 * time.Second):
			panic("micro pass: TCP ping-pong frame lost")
		}
	}
	rtt() // dial and handshake before timing
	return rtt, func() {
		na.Close()
		nb.Close()
	}
}

func microTransport() ([]microBench, func()) {
	plain, closePlain := pingPong(nil)
	ca := must(transport.NewCA("saebft-benchmark micro"))
	secure, closeSecure := pingPong(func(id types.NodeID) *transport.Security { return must(ca.Identity(id)) })

	// SimNet.Step: two nodes bouncing one message, so every Step pops one
	// delivery (or one tick) and pushes the next.
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 1})
	payload := make([]byte, 256)
	for _, id := range []types.NodeID{0, 1} {
		id := id
		send := net.Bind(id)
		net.Register(id, transport.NodeFunc{OnDeliver: func(from types.NodeID, data []byte, _ types.Time) { send(from, data) }})
	}
	net.Bind(0)(1, payload)
	return []microBench{
			{name: "transport.tcp_rtt_us", unit: "us", fn: plain},
			{name: "transport.tls_rtt_us", unit: "us", fn: secure},
			{name: "transport.sim_step_ns", unit: "ns", group: 64, fn: func() { net.Step() }},
		}, func() {
			closePlain()
			closeSecure()
		}
}
