package transport

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// Wire format. Every connection opens with a fixed-size hello that names the
// protocol and the sender's identity; the listener answers with a one-byte
// ack only after the hello is accepted (and, under TLS, bound to the peer's
// authenticated certificate identity). The ack matters: TLS 1.3 completes
// the client-side handshake before the server has judged the client
// certificate, so without an explicit accept signal a rejected dialer would
// think its handshake succeeded and reset its backoff. Frame layout after
// the hello/ack: [u32 payload length][u32 sender id][payload].
const (
	frameHeader  = 8
	maxFrameSize = 64 << 20 // refuse absurd frames from broken/byzantine peers

	helloMagic   = 0x53414542 // "SAEB"
	helloVersion = 2
	helloSize    = 12   // [u32 magic][u32 version][u32 sender id]
	helloAck     = 0x06 // listener's accept byte (ASCII ACK)
)

// TCPOptions tunes a TCPNet endpoint. The zero value gives plaintext links
// with the defaults below — loopback-friendly; WAN deployments should set
// Security and raise the timeouts to match their RTTs.
type TCPOptions struct {
	// Security enables mutual TLS with identity binding on every link.
	// Nil means plaintext (simulator parity and loopback tests).
	Security *Security

	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration

	// HandshakeTimeout bounds the TLS handshake plus hello exchange on a
	// new connection, in both directions (default 5s). It is what evicts
	// port scanners and half-open peers.
	HandshakeTimeout time.Duration

	// WriteTimeout bounds each frame write (default 5s); a peer that
	// stalls longer has its connection torn down and redialed.
	WriteTimeout time.Duration

	// BackoffMin and BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 10ms and 2s). Backoff resets to BackoffMin only
	// after a fully authenticated handshake, so a listener that accepts
	// and then rejects us cannot hold the dialer in a tight retry loop.
	BackoffMin, BackoffMax time.Duration

	// QueueLen bounds each peer's outbound frame queue (default 4096).
	// When the queue is full the oldest frame is dropped first: during an
	// outage the queue holds the newest window of traffic, which is what
	// the retransmitting protocols want on reconnect.
	QueueLen int

	// Obs, when non-nil, receives the endpoint's link metrics: the
	// LinkStats counters as func-backed series, per-peer queue-depth and
	// stall-detector gauges, and the TLS certificate expiry. ObsNode is
	// the "node" label value for every series. Close unregisters them.
	Obs     *obs.Registry
	ObsNode string

	// Listener, when non-nil, is an already bound listener the endpoint
	// serves on (and owns) instead of binding its configured address. A
	// caller that let the kernel choose the port keeps it bound this way:
	// closed and bound again later, it could be taken in between by a
	// peer's outbound connection.
	Listener net.Listener
}

func (o *TCPOptions) fillDefaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = o.BackoffMin
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 4096
	}
}

// LinkStats snapshots an endpoint's link-state counters. All counters are
// cumulative since the endpoint started; self-sends bypass the links and are
// not counted.
type LinkStats struct {
	Dials             uint64 // outbound connection attempts
	DialFailures      uint64 // attempts that failed before any handshake
	Handshakes        uint64 // authenticated handshakes completed (both directions)
	HandshakeFailures uint64 // TLS/hello failures (both directions)
	AuthRejects       uint64 // authenticated identity contradicted the claimed sender
	Reconnects        uint64 // successful handshakes after a previous connection was lost
	FramesSent        uint64
	FramesReceived    uint64
	BytesSent         uint64
	BytesReceived     uint64
	FramesDropped     uint64 // bounded-queue oldest-drops + frames abandoned while a peer was unreachable
}

// linkCounters is the atomic backing store for LinkStats.
type linkCounters struct {
	dials, dialFailures, handshakes, handshakeFailures, authRejects,
	reconnects, framesSent, framesReceived, bytesSent, bytesReceived,
	framesDropped atomic.Uint64
}

func (c *linkCounters) snapshot() LinkStats {
	return LinkStats{
		Dials:             c.dials.Load(),
		DialFailures:      c.dialFailures.Load(),
		Handshakes:        c.handshakes.Load(),
		HandshakeFailures: c.handshakeFailures.Load(),
		AuthRejects:       c.authRejects.Load(),
		Reconnects:        c.reconnects.Load(),
		FramesSent:        c.framesSent.Load(),
		FramesReceived:    c.framesReceived.Load(),
		BytesSent:         c.bytesSent.Load(),
		BytesReceived:     c.bytesReceived.Load(),
		FramesDropped:     c.framesDropped.Load(),
	}
}

// TCPNet is a mesh of persistent TCP connections between nodes. Each node
// listens on its configured address; senders dial lazily and reconnect with
// jittered exponential backoff. With TCPOptions.Security set, every link is
// mutual TLS and every peer's claimed identity is bound to its certificate
// before any frame is parsed. Delivery is best-effort: messages queued while
// a peer is unreachable are bounded and dropped oldest-first, matching the
// unreliable network model the protocols are designed for.
type TCPNet struct {
	self  types.NodeID
	addrs map[types.NodeID]string
	opts  TCPOptions
	ln    net.Listener
	logf  atomic.Pointer[func(string, ...interface{})]
	stats linkCounters

	mu        sync.Mutex
	peers     map[types.NodeID]*tcpPeer
	inbound   map[net.Conn]bool
	closed    bool
	handler   func(from types.NodeID, data []byte)
	wg        sync.WaitGroup
	start     time.Time
	obsSeries []obsSeries // registered series, unregistered on Close
}

type tcpPeer struct {
	out           chan []byte
	stop          chan struct{}
	everConnected bool       // writeLoop-only; reconnect accounting
	stalled       *obs.Gauge // 1 while down and backing off; nil without a registry
}

// NewTCPNet creates a plaintext node endpoint with default tuning. addrs
// maps every node (including self) to "host:port". The handler is invoked
// from receiving goroutines; it must be safe for concurrent use (Runtime
// serializes into the protocol core).
func NewTCPNet(self types.NodeID, addrs map[types.NodeID]string, handler func(from types.NodeID, data []byte)) (*TCPNet, error) {
	return NewTCPNetOpts(self, addrs, handler, TCPOptions{})
}

// NewTCPNetOpts is NewTCPNet with explicit link tuning and (optionally)
// mutual-TLS security.
func NewTCPNetOpts(self types.NodeID, addrs map[types.NodeID]string, handler func(from types.NodeID, data []byte), opts TCPOptions) (*TCPNet, error) {
	opts.fillDefaults()
	ln := opts.Listener
	if ln == nil {
		addr, ok := addrs[self]
		if !ok {
			return nil, fmt.Errorf("tcp: no address configured for self %v", self)
		}
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", addr, err)
		}
	}
	n := &TCPNet{
		self:    self,
		addrs:   addrs,
		opts:    opts,
		ln:      ln,
		peers:   make(map[types.NodeID]*tcpPeer),
		inbound: make(map[net.Conn]bool),
		handler: handler,
		start:   time.Now(),
	}
	n.SetLogf(log.Printf)
	n.registerObs()
	n.warnCertExpiry()
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address (useful with ":0" configs in tests).
func (n *TCPNet) Addr() string { return n.ln.Addr().String() }

// Now returns monotonic time since the endpoint started.
func (n *TCPNet) Now() types.Time { return types.Time(time.Since(n.start).Nanoseconds()) }

// SetLogf replaces the error logger (tests silence it). Safe to call while
// the endpoint is live — connection goroutines may be logging concurrently.
func (n *TCPNet) SetLogf(f func(string, ...interface{})) { n.logf.Store(&f) }

// log emits through the current logger.
func (n *TCPNet) log(format string, args ...interface{}) {
	if f := n.logf.Load(); f != nil {
		(*f)(format, args...)
	}
}

// Stats snapshots the endpoint's cumulative link-state counters.
func (n *TCPNet) Stats() LinkStats { return n.stats.snapshot() }

// Secure reports whether the endpoint's links run over mutual TLS.
func (n *TCPNet) Secure() bool { return n.opts.Security != nil }

func (n *TCPNet) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

// serveConn authenticates one inbound connection and then reads frames from
// it until it breaks. No frame reaches the handler before the hello (and,
// under TLS, the certificate identity) has been verified.
func (n *TCPNet) serveConn(raw net.Conn) {
	conn := raw
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, raw)
		n.mu.Unlock()
	}()

	conn.SetDeadline(time.Now().Add(n.opts.HandshakeTimeout))
	var certID types.NodeID = types.NoNode
	if sec := n.opts.Security; sec != nil {
		tconn := tls.Server(conn, sec.serverConfig())
		if err := tconn.Handshake(); err != nil {
			n.stats.handshakeFailures.Add(1)
			n.log("tcp %v: inbound TLS handshake from %s: %v", n.self, raw.RemoteAddr(), err)
			tconn.Close()
			return
		}
		id, err := peerCertID(tconn)
		if err != nil {
			n.stats.handshakeFailures.Add(1)
			n.log("tcp %v: inbound peer certificate from %s: %v", n.self, raw.RemoteAddr(), err)
			tconn.Close()
			return
		}
		certID = id
		conn = tconn
		// Track the TLS wrapper from here on so Close unblocks reads on it.
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			tconn.Close()
			return
		}
		delete(n.inbound, raw)
		n.inbound[tconn] = true
		n.mu.Unlock()
		defer func() {
			n.mu.Lock()
			delete(n.inbound, tconn)
			n.mu.Unlock()
		}()
	}

	from, err := readHello(conn)
	if err != nil {
		n.stats.handshakeFailures.Add(1)
		n.log("tcp %v: inbound hello from %s: %v", n.self, raw.RemoteAddr(), err)
		return
	}
	if certID != types.NoNode && certID != from {
		n.stats.authRejects.Add(1)
		n.log("tcp %v: peer %s presented certificate for node %v but claims to be node %v; closing",
			n.self, raw.RemoteAddr(), certID, from)
		return
	}
	if _, err := conn.Write([]byte{helloAck}); err != nil {
		n.stats.handshakeFailures.Add(1)
		return
	}
	conn.SetDeadline(time.Time{})
	n.stats.handshakes.Add(1)

	err = readFrames(conn, from, func(payload []byte) bool {
		n.stats.framesReceived.Add(1)
		n.stats.bytesReceived.Add(uint64(frameHeader + len(payload)))
		n.mu.Lock()
		h, closed := n.handler, n.closed
		n.mu.Unlock()
		if closed {
			return false
		}
		h(from, payload)
		return true
	})
	switch {
	case errors.Is(err, errForeignSender):
		n.stats.authRejects.Add(1)
		n.log("tcp %v: %v; closing", n.self, err)
	case errors.Is(err, errFrameTooLarge):
		n.log("tcp %v: %v", n.self, err)
	}
}

// Why readFrames gave up on a stream that was still readable.
var (
	errForeignSender = errors.New("foreign sender")
	errFrameTooLarge = errors.New("oversized frame")
)

// readFrames reads [u32 payload length][u32 sender id][payload] frames from
// r and hands each payload to deliver, until the stream breaks, deliver
// returns false, or a frame is refused: one whose sender is not from (one
// connection speaks for exactly one authenticated identity), or one longer
// than maxFrameSize, refused before its payload is allocated. It returns
// the read error, nil when deliver stopped it, or an error wrapping
// errForeignSender or errFrameTooLarge.
func readFrames(r io.Reader, from types.NodeID, deliver func(payload []byte) bool) error {
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		size := binary.BigEndian.Uint32(hdr[0:4])
		sender := types.NodeID(int32(binary.BigEndian.Uint32(hdr[4:8])))
		if sender != from {
			return fmt.Errorf("connection authenticated as %v framed a message as %v: %w", from, sender, errForeignSender)
		}
		if size > maxFrameSize {
			return fmt.Errorf("%w (%d bytes) from %v", errFrameTooLarge, size, from)
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return err
		}
		if !deliver(payload) {
			return nil
		}
	}
}

// writeHello sends the connection preamble naming this endpoint.
func writeHello(conn net.Conn, self types.NodeID) error {
	var hello [helloSize]byte
	binary.BigEndian.PutUint32(hello[0:4], helloMagic)
	binary.BigEndian.PutUint32(hello[4:8], helloVersion)
	binary.BigEndian.PutUint32(hello[8:12], uint32(int32(self)))
	_, err := conn.Write(hello[:])
	return err
}

// readHello validates the connection preamble and returns the claimed
// sender identity. It reads exactly the hello, nothing past it.
func readHello(r io.Reader) (types.NodeID, error) {
	var hello [helloSize]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return types.NoNode, fmt.Errorf("reading hello: %w", err)
	}
	if m := binary.BigEndian.Uint32(hello[0:4]); m != helloMagic {
		return types.NoNode, fmt.Errorf("bad magic %#x", m)
	}
	if v := binary.BigEndian.Uint32(hello[4:8]); v != helloVersion {
		return types.NoNode, fmt.Errorf("unsupported protocol version %d", v)
	}
	return types.NodeID(int32(binary.BigEndian.Uint32(hello[8:12]))), nil
}

// Send transmits asynchronously; it never blocks the caller. Messages to
// unknown peers are dropped; messages to unreachable peers are queued up to
// QueueLen frames, oldest dropped first.
func (n *TCPNet) Send(to types.NodeID, data []byte) {
	if to == n.self {
		n.handler(n.self, data)
		return
	}
	addr, ok := n.addrs[to]
	if !ok {
		n.stats.framesDropped.Add(1)
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	p := n.peers[to]
	if p == nil {
		p = &tcpPeer{out: make(chan []byte, n.opts.QueueLen), stop: make(chan struct{})}
		n.peers[to] = p
		n.registerPeerObs(p, to)
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.writeLoop(p, to, addr)
		}()
	}
	n.mu.Unlock()

	// The queue carries the payload as handed in — the 8-byte frame header
	// is prepended by the writeLoop via a vectored write, so Send never
	// copies the body. Callers hand over ownership of data (the encoders
	// produce a fresh slice per message), and broadcasts fanning one slice
	// out to several peers are safe because every reader is read-only.
	frame := data
	select {
	case p.out <- frame:
	default:
		// Queue full: drop the oldest frame so the queue holds the newest
		// window of traffic, then retry once (the writeLoop may have
		// drained concurrently; losing that race just drops this frame,
		// which the protocols tolerate).
		select {
		case <-p.out:
			n.stats.framesDropped.Add(1)
		default:
		}
		select {
		case p.out <- frame:
		default:
			n.stats.framesDropped.Add(1)
		}
	}
}

// dialPeer establishes and fully authenticates one outbound connection:
// TCP dial, then (with Security) the mutual-TLS handshake pinned to the
// target's identity, then the hello. Only a connection that passed all of
// that is returned — the caller resets its backoff on success.
func (n *TCPNet) dialPeer(to types.NodeID, addr string) (net.Conn, error) {
	n.stats.dials.Add(1)
	conn, err := net.DialTimeout("tcp", addr, n.opts.DialTimeout)
	if err != nil {
		n.stats.dialFailures.Add(1)
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(n.opts.HandshakeTimeout))
	if sec := n.opts.Security; sec != nil {
		tconn := tls.Client(conn, sec.clientConfig(to))
		if err := tconn.Handshake(); err != nil {
			n.stats.handshakeFailures.Add(1)
			tconn.Close()
			return nil, fmt.Errorf("TLS handshake with node %v: %w", to, err)
		}
		conn = tconn
	}
	if err := writeHello(conn, n.self); err != nil {
		n.stats.handshakeFailures.Add(1)
		conn.Close()
		return nil, fmt.Errorf("hello to node %v: %w", to, err)
	}
	// Wait for the listener's accept byte: under TLS 1.3 our handshake
	// "succeeds" locally before the server has judged our certificate, and
	// in plaintext the hello is fire-and-forget — only the ack proves the
	// peer actually accepted us, which is what gates the backoff reset.
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != helloAck {
		n.stats.handshakeFailures.Add(1)
		conn.Close()
		if err == nil {
			err = fmt.Errorf("unexpected ack byte %#x", ack[0])
		}
		return nil, fmt.Errorf("hello ack from node %v: %w", to, err)
	}
	conn.SetDeadline(time.Time{})
	n.stats.handshakes.Add(1)
	return conn, nil
}

// jitter spreads a backoff uniformly over [b/2, b], so a mesh of dialers
// whose peer died together does not thunder back in lockstep.
func jitter(b time.Duration) time.Duration {
	if b <= 1 {
		return b
	}
	half := b / 2
	return half + rand.N(half+1)
}

func (n *TCPNet) writeLoop(p *tcpPeer, to types.NodeID, addr string) {
	var conn net.Conn
	var hdr [frameHeader]byte
	backoff := n.opts.BackoffMin
	for {
		select {
		case <-p.stop:
			if conn != nil {
				conn.Close()
			}
			return
		case frame := <-p.out:
			for conn == nil {
				c, err := n.dialPeer(to, addr)
				if err != nil {
					p.stalled.Set(1)
					n.log("tcp %v: connecting to node %v (%s): %v", n.self, to, addr, err)
					// Connection attempt failed; drop the pending frame
					// rather than buffering unboundedly, and back off with
					// jitter before the next attempt.
					n.stats.framesDropped.Add(1)
					frame = nil
					select {
					case <-p.stop:
						return
					case <-time.After(jitter(backoff)):
					}
					if backoff < n.opts.BackoffMax {
						backoff *= 2
						if backoff > n.opts.BackoffMax {
							backoff = n.opts.BackoffMax
						}
					}
					break
				}
				conn = c
				// Reset only here: the handshake authenticated the peer. A
				// listener that accepts TCP but fails auth keeps backing off.
				backoff = n.opts.BackoffMin
				p.stalled.Set(0)
				if p.everConnected {
					n.stats.reconnects.Add(1)
				}
				p.everConnected = true
				// The frame in hand is older than everything queued behind
				// it. If the queue filled while the peer was unreachable,
				// sending it too would deliver QueueLen+1 frames: drop it,
				// as Send drops the oldest.
				if len(p.out) == cap(p.out) {
					n.stats.framesDropped.Add(1)
					frame = nil
				}
			}
			if conn == nil || frame == nil {
				continue
			}
			// Vectored write: the header lives in a per-loop scratch array
			// and the payload is written in place, so the frame path does
			// zero copies between the encoder and the socket.
			binary.BigEndian.PutUint32(hdr[0:4], uint32(len(frame)))
			binary.BigEndian.PutUint32(hdr[4:8], uint32(int32(n.self)))
			bufs := net.Buffers{hdr[:], frame}
			conn.SetWriteDeadline(time.Now().Add(n.opts.WriteTimeout))
			if _, err := bufs.WriteTo(conn); err != nil {
				n.stats.framesDropped.Add(1)
				p.stalled.Set(1)
				conn.Close()
				conn = nil
				continue
			}
			n.stats.framesSent.Add(1)
			n.stats.bytesSent.Add(uint64(frameHeader + len(frame)))
		}
	}
}

// Close shuts the endpoint down and waits for its goroutines. Every metric
// series the endpoint registered — the link counters and the per-peer
// queue-depth/stall gauges — is unregistered, so a stopped endpoint's
// backoff bookkeeping cannot linger in the registry as a permanently
// stalled peer.
func (n *TCPNet) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("tcp: already closed")
	}
	n.closed = true
	peers := n.peers
	n.peers = make(map[types.NodeID]*tcpPeer)
	series := n.obsSeries
	n.obsSeries = nil
	inbound := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		inbound = append(inbound, c)
	}
	n.mu.Unlock()

	n.ln.Close()
	for _, c := range inbound {
		c.Close() // unblocks serveConns parked in ReadFull
	}
	for _, p := range peers {
		close(p.stop)
	}
	n.wg.Wait()
	for _, s := range series {
		n.opts.Obs.Unregister(s.name, s.labels...)
	}
	return nil
}

// Runtime drives a deterministic protocol Node over a concurrent transport:
// it serializes inbound messages and periodic ticks into the node through a
// single goroutine, preserving the node's single-threaded discipline.
type Runtime struct {
	node  Node
	now   func() types.Time
	inbox chan inboundMsg
	calls chan runtimeCall
	quit  chan struct{}
	done  chan struct{}
}

type inboundMsg struct {
	from types.NodeID
	data []byte
}

type runtimeCall struct {
	fn   func(now types.Time)
	done chan struct{}
}

// NewRuntime starts the runtime's event loop. The returned handler function
// is what should be registered as the TCPNet receive handler.
func NewRuntime(node Node, now func() types.Time, tickEvery time.Duration) (*Runtime, func(from types.NodeID, data []byte)) {
	r := &Runtime{
		node:  node,
		now:   now,
		inbox: make(chan inboundMsg, 4096),
		calls: make(chan runtimeCall),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.loop(tickEvery)
	return r, r.enqueue
}

func (r *Runtime) enqueue(from types.NodeID, data []byte) {
	select {
	case r.inbox <- inboundMsg{from, data}:
	case <-r.quit:
	}
}

func (r *Runtime) loop(tickEvery time.Duration) {
	defer close(r.done)
	ticker := time.NewTicker(tickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-r.quit:
			return
		case m := <-r.inbox:
			r.node.Deliver(m.from, m.data, r.now())
		case c := <-r.calls:
			c.fn(r.now())
			close(c.done)
		case <-ticker.C:
			r.node.Tick(r.now())
		}
	}
}

// Do runs fn on the runtime goroutine, serialized against Deliver and Tick,
// and waits for it to complete. External callers (e.g. a synchronous client
// API) use it to touch node state without violating the single-threaded
// protocol-core discipline.
func (r *Runtime) Do(fn func(now types.Time)) {
	c := runtimeCall{fn: fn, done: make(chan struct{})}
	select {
	case r.calls <- c:
		<-c.done
	case <-r.quit:
	}
}

// Close stops the event loop and waits for it to exit.
func (r *Runtime) Close() {
	close(r.quit)
	<-r.done
}
