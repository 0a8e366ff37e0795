package transport

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/types"
)

// mintSecurity issues an in-memory identity for id from ca, failing the test
// on error.
func mintSecurity(t *testing.T, ca *CA, id types.NodeID) *Security {
	t.Helper()
	sec, err := ca.Identity(id)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// tlsPair starts two mutually-authenticated endpoints on loopback.
func tlsPair(t *testing.T, ca *CA) (a, b *TCPNet, recvA, recvB *safeLog) {
	t.Helper()
	recvA, recvB = &safeLog{}, &safeLog{}
	addrs := map[types.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	a, err := NewTCPNetOpts(1, addrs, recvA.add, TCPOptions{Security: mintSecurity(t, ca, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addrs2 := map[types.NodeID]string{1: a.Addr(), 2: "127.0.0.1:0"}
	b, err = NewTCPNetOpts(2, addrs2, recvB.add, TCPOptions{Security: mintSecurity(t, ca, 2)})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.addrs[2] = b.Addr()
	a.SetLogf(func(string, ...interface{}) {})
	b.SetLogf(func(string, ...interface{}) {})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, recvA, recvB
}

func TestTLSSendReceive(t *testing.T) {
	ca, err := NewCA("test cluster")
	if err != nil {
		t.Fatal(err)
	}
	a, b, recvA, recvB := tlsPair(t, ca)
	a.Send(2, []byte("over mTLS"))
	waitFor(t, "delivery a→b", func() bool { return recvB.count() == 1 })
	b.Send(1, []byte("and back"))
	waitFor(t, "delivery b→a", func() bool { return recvA.count() == 1 })
	from, data := recvB.first()
	if from != 1 || string(data) != "over mTLS" {
		t.Errorf("got from=%v data=%q", from, data)
	}
	if s := a.Stats(); s.Handshakes == 0 || s.FramesSent == 0 {
		t.Errorf("sender link stats not accounted: %+v", s)
	}
	if !a.Secure() || !b.Secure() {
		t.Error("endpoints do not report Secure()")
	}
}

// TestTLSCARoundTrip exercises the PEM forms an operator actually handles:
// the CA round-trips through PEM and can mint certificates afterwards, and
// NewSecurity rejects a certificate bound to a different identity.
func TestTLSCARoundTrip(t *testing.T) {
	ca, err := NewCA("test cluster")
	if err != nil {
		t.Fatal(err)
	}
	keyPEM, err := ca.KeyPEM()
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := LoadCA(ca.CertPEM(), keyPEM)
	if err != nil {
		t.Fatal(err)
	}
	certPEM, ckeyPEM, err := ca2.IssuePEM(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSecurity(7, ca.CertPEM(), certPEM, ckeyPEM); err != nil {
		t.Fatalf("valid identity rejected: %v", err)
	}
	if _, err := NewSecurity(8, ca.CertPEM(), certPEM, ckeyPEM); err == nil {
		t.Fatal("certificate for node 7 accepted as identity of node 8")
	}
}

// TestTLSRejectsImpostor runs a node that presents a valid cluster
// certificate for identity 3 while claiming to be node 2. Both directions
// must refuse it: the honest dialer rejects the misbound server certificate,
// and the honest listener rejects the hello/certificate mismatch — before
// any payload frame is parsed.
func TestTLSRejectsImpostor(t *testing.T) {
	ca, err := NewCA("test cluster")
	if err != nil {
		t.Fatal(err)
	}
	recvA := &safeLog{}
	addrs := map[types.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	a, err := NewTCPNetOpts(1, addrs, recvA.add, TCPOptions{
		Security:   mintSecurity(t, ca, 1),
		BackoffMin: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetLogf(func(string, ...interface{}) {})

	// The impostor holds a *valid* certificate — for node 3 — but occupies
	// node 2's slot in the mesh.
	recvImp := &safeLog{}
	addrsImp := map[types.NodeID]string{1: a.Addr(), 2: "127.0.0.1:0"}
	imp, err := NewTCPNetOpts(2, addrsImp, recvImp.add, TCPOptions{
		Security:   mintSecurity(t, ca, 3),
		BackoffMin: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	imp.SetLogf(func(string, ...interface{}) {})
	a.addrs[2] = imp.Addr()

	// Impostor dials the honest node: TLS completes (its certificate is
	// valid), but the identity binding fails at the hello.
	imp.Send(1, []byte("forged"))
	waitFor(t, "honest listener rejecting the impostor", func() bool {
		return a.Stats().AuthRejects > 0
	})

	// Honest node dials what it believes is node 2: the pinned identity
	// check inside the TLS handshake refuses the misbound certificate.
	a.Send(2, []byte("hello node 2"))
	waitFor(t, "honest dialer rejecting the impostor", func() bool {
		return a.Stats().HandshakeFailures > 0
	})

	if recvA.count() != 0 {
		t.Fatalf("impostor payload reached the handler: %d messages", recvA.count())
	}
}

// TestTLSRejectsForeignCA verifies a peer from a different cluster CA is cut
// off during the TLS handshake itself.
func TestTLSRejectsForeignCA(t *testing.T) {
	ca1, err := NewCA("cluster one")
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := NewCA("cluster two")
	if err != nil {
		t.Fatal(err)
	}
	recvA := &safeLog{}
	a, err := NewTCPNetOpts(1, map[types.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}, recvA.add,
		TCPOptions{Security: mintSecurity(t, ca1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetLogf(func(string, ...interface{}) {})

	recvB := &safeLog{}
	b, err := NewTCPNetOpts(2, map[types.NodeID]string{1: a.Addr(), 2: "127.0.0.1:0"}, recvB.add,
		TCPOptions{Security: mintSecurity(t, ca2, 2), BackoffMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetLogf(func(string, ...interface{}) {})

	b.Send(1, []byte("wrong cluster"))
	waitFor(t, "handshake rejection", func() bool { return a.Stats().HandshakeFailures > 0 })
	if recvA.count() != 0 {
		t.Fatal("message from a foreign-CA peer was delivered")
	}
}

// TestPlaintextRejectsGarbageConnection: a connection that does not speak
// the hello preamble (port scanner, misdirected client) is dropped without
// any frame reaching the handler.
func TestPlaintextRejectsGarbageConnection(t *testing.T) {
	recv := &safeLog{}
	n, err := NewTCPNetOpts(1, map[types.NodeID]string{1: "127.0.0.1:0"}, recv.add,
		TCPOptions{HandshakeTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetLogf(func(string, ...interface{}) {})

	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	waitFor(t, "garbage rejection", func() bool { return n.Stats().HandshakeFailures > 0 })
	if recv.count() != 0 {
		t.Fatal("garbage bytes were parsed into a frame")
	}
}

// TestQueueBoundOldestDrop: with the peer down, the outbound queue must stay
// bounded and keep the *newest* frames for delivery on reconnect.
func TestQueueBoundOldestDrop(t *testing.T) {
	// Reserve a port for the future peer without a listener on it yet.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := ln.Addr().String()
	ln.Close()

	const queueLen = 8
	recvA := &safeLog{}
	a, err := NewTCPNetOpts(1, map[types.NodeID]string{1: "127.0.0.1:0", 2: peerAddr}, recvA.add,
		TCPOptions{QueueLen: queueLen, BackoffMin: 20 * time.Millisecond, BackoffMax: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetLogf(func(string, ...interface{}) {})

	const total = 100
	for i := 0; i < total; i++ {
		a.Send(2, []byte{byte(i)})
	}
	if got := a.Stats().FramesDropped; got == 0 {
		t.Fatal("no frames dropped despite a full queue and a dead peer")
	}

	// Bring the peer up on the reserved port; the queued tail must flow.
	recvB := &safeLog{}
	b, err := NewTCPNetOpts(2, map[types.NodeID]string{1: "127.0.0.1:0", 2: peerAddr}, recvB.add, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetLogf(func(string, ...interface{}) {})

	waitFor(t, "queued tail delivery", func() bool {
		recvB.mu.Lock()
		defer recvB.mu.Unlock()
		for _, m := range recvB.msgs {
			if m.data[0] == byte(total-1) {
				return true
			}
		}
		return false
	})
	recvB.mu.Lock()
	defer recvB.mu.Unlock()
	if len(recvB.msgs) > queueLen {
		t.Fatalf("peer received %d frames; queue bound is %d", len(recvB.msgs), queueLen)
	}
	for _, m := range recvB.msgs {
		if int(m.data[0]) < total-3*queueLen {
			t.Fatalf("stale frame %d survived; oldest-drop should have evicted it", m.data[0])
		}
	}
}

// TestReconnectBackoffBounds: while a peer is unreachable, dial attempts
// must follow the jittered exponential schedule — bounded well below a tight
// retry loop but still retrying.
func TestReconnectBackoffBounds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	a, err := NewTCPNetOpts(1, map[types.NodeID]string{1: "127.0.0.1:0", 2: deadAddr}, (&safeLog{}).add,
		TCPOptions{BackoffMin: 20 * time.Millisecond, BackoffMax: 160 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetLogf(func(string, ...interface{}) {})

	deadline := time.Now().Add(700 * time.Millisecond)
	for time.Now().Before(deadline) {
		a.Send(2, []byte("x"))
		time.Sleep(2 * time.Millisecond)
	}
	// Close joins the dialer, so no attempt is counted as made but not yet
	// as failed when the counters are read.
	a.Close()
	s := a.Stats()
	if s.Dials < 2 {
		t.Fatalf("only %d dial attempts in 700ms; reconnect seems stuck", s.Dials)
	}
	// Minimum-jitter schedule: 10+20+40+80+80+... ⇒ at most ~10 attempts in
	// 700ms. 20 leaves slack for scheduling; a tight loop would be hundreds.
	if s.Dials > 20 {
		t.Fatalf("%d dial attempts in 700ms; backoff is not being applied", s.Dials)
	}
	if s.DialFailures != s.Dials {
		t.Fatalf("dials=%d failures=%d against a dead address", s.Dials, s.DialFailures)
	}
}

// TestReconnectChurn kills and restarts a TCP peer repeatedly while the
// sender keeps transmitting: each incarnation must receive fresh traffic
// (backoff reset after each authenticated reconnect), the Reconnects counter
// must track the churn, and tearing everything down must not leak
// goroutines.
func TestReconnectChurn(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ca, err := NewCA("churn cluster")
	if err != nil {
		t.Fatal(err)
	}
	secA, secB := mintSecurity(t, ca, 1), mintSecurity(t, ca, 2)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := ln.Addr().String()
	ln.Close()

	recvA := &safeLog{}
	a, err := NewTCPNetOpts(1, map[types.NodeID]string{1: "127.0.0.1:0", 2: peerAddr}, recvA.add,
		TCPOptions{Security: secA, BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a.SetLogf(func(string, ...interface{}) {})

	stopSender := make(chan struct{})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		for i := 0; ; i++ {
			select {
			case <-stopSender:
				return
			case <-time.After(2 * time.Millisecond):
				a.Send(2, []byte{byte(i)})
			}
		}
	}()

	const incarnations = 4
	for i := 0; i < incarnations; i++ {
		recvB := &safeLog{}
		b, err := NewTCPNetOpts(2, map[types.NodeID]string{1: "127.0.0.1:0", 2: peerAddr}, recvB.add,
			TCPOptions{Security: secB})
		if err != nil {
			t.Fatalf("incarnation %d: %v", i, err)
		}
		b.SetLogf(func(string, ...interface{}) {})
		waitFor(t, "delivery to restarted peer", func() bool { return recvB.count() > 0 })
		b.Close()
	}
	close(stopSender)
	<-senderDone

	if rc := a.Stats().Reconnects; rc < incarnations-1 {
		t.Errorf("Reconnects = %d after %d peer restarts", rc, incarnations)
	}
	a.Close()

	// Goroutine-leak check: everything the transport spawned must be gone.
	waitFor(t, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})
}
