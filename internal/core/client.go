package core

import (
	"crypto/rand"
	"fmt"

	"repro/internal/auth"
	"repro/internal/replycert"
	"repro/internal/seal"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Client issues authenticated requests and validates reply certificates
// (§3.1.1). It keeps one request outstanding (the paper's client model),
// sends the first copy to the agreement replica it believes is primary, and
// retransmits to all replicas with exponential backoff.
type Client struct {
	id       types.NodeID
	top      *types.Topology
	scheme   auth.Scheme         // request attestations
	verifier *replycert.Verifier // reply certificates
	sealer   *seal.Sealer        // non-nil when bodies are sealed
	send     transport.Sender
	firstTo  types.NodeID // believed primary

	ts          types.Timestamp
	outstanding *wire.Request
	plainOp     []byte
	deadline    types.Time
	interval    types.Time
	initialWait types.Time
	assembler   *replycert.Assembler
	onResult    func(body []byte, seq types.SeqNum)

	// Certified fast reads (nil readVerifier disables the path).
	readVerifier *replycert.ReadVerifier
	readSend     transport.Sender // probe/retransmit sender; nil uses send
	read         *wire.ReadRequest
	readAsm      *replycert.ReadAssembler
	readDeadline types.Time
	readInterval types.Time
	onReadDone   func(ReadOutcome)

	// Metrics counts externally observable client activity.
	Metrics ClientMetrics
}

// ClientMetrics aggregates counters exposed for tests and benchmarks.
type ClientMetrics struct {
	Requests    uint64
	Retransmits uint64
	Replies     uint64
	BadReplies  uint64

	Reads           uint64 // certified-read probes issued
	ReadRetransmits uint64
	ReadsCertified  uint64 // probes that reached a g+1 quorum
	ReadMismatches  uint64 // probes where all executors answered without a quorum
	BadReadReplies  uint64 // read replies rejected (signature, membership, wrong probe)
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	ID              types.NodeID
	Topology        *types.Topology
	Scheme          auth.Scheme
	Verifier        *replycert.Verifier
	Sealer          *seal.Sealer // optional
	RetransmitAfter types.Time

	// ReadVerifier enables the certified fast read path (SubmitRead). Nil
	// disables it — the natural state for privacy-firewall deployments,
	// whose wiring severs the client↔exec channel, and for BASE mode,
	// which has no execution replicas to probe.
	ReadVerifier *replycert.ReadVerifier
}

// NewClient constructs a client bound to a Sender.
func NewClient(cfg ClientConfig, send transport.Sender) *Client {
	wait := cfg.RetransmitAfter
	if wait == 0 {
		wait = types.Millisecond(100)
	}
	return &Client{
		id:           cfg.ID,
		top:          cfg.Topology,
		scheme:       cfg.Scheme,
		verifier:     cfg.Verifier,
		sealer:       cfg.Sealer,
		send:         send,
		firstTo:      cfg.Topology.Agreement[0],
		initialWait:  wait,
		assembler:    replycert.NewAssembler(cfg.Verifier),
		readVerifier: cfg.ReadVerifier,
	}
}

// Submit issues a new request. It panics if one is already outstanding: the
// paper's client sends a request, waits for the reply, and only then sends
// its next request (§2).
func (c *Client) Submit(op []byte, now types.Time) error {
	if c.outstanding != nil {
		panic("client: request already outstanding")
	}
	c.ts++
	body := op
	if c.sealer != nil {
		sealed, err := c.sealer.SealRequest(rand.Reader, op)
		if err != nil {
			return fmt.Errorf("client: sealing request: %w", err)
		}
		body = sealed
	}
	req := &wire.Request{Client: c.id, Timestamp: c.ts, Op: body, ReplyTo: c.firstTo}
	att, err := c.scheme.Attest(auth.KindRequest, req.Digest(), c.top.Agreement)
	if err != nil {
		return fmt.Errorf("client: attesting request: %w", err)
	}
	req.Att = att
	c.outstanding = req
	c.plainOp = op
	c.interval = c.initialWait
	c.deadline = now + c.interval
	c.assembler = replycert.NewAssembler(c.verifier)
	c.Metrics.Requests++
	// First transmission goes to the believed primary only (§3.1.1).
	c.send(c.firstTo, wire.Marshal(req))
	return nil
}

// SetTimestamp advances the client's request-timestamp counter. A process
// that reuses a client identity (a CLI tool run twice against the same
// deployment) must start above the identity's previous timestamps or the
// executors' exactly-once reply table will answer its first request from
// cache; wall-clock nanoseconds are the conventional choice (§2's
// monotonically-increasing timestamp assumption). Must be called before
// Submit and never between Submit and the reply.
func (c *Client) SetTimestamp(ts types.Timestamp) {
	if c.outstanding != nil {
		panic("client: SetTimestamp with a request outstanding")
	}
	if ts > c.ts {
		c.ts = ts
	}
}

// Cancel abandons the outstanding request, if any: retransmission stops and
// a late certificate for it is ignored. The caller may Submit again
// immediately. Used by timeout/cancellation paths of asynchronous callers;
// the replicated service may still execute the abandoned operation.
func (c *Client) Cancel() { c.outstanding = nil }

// SetOnResult installs the completion callback, the client's only way of
// reporting a result: each certified reply body, and the sequence number
// that certified it (the session watermark a read-your-writes read can
// demand), is handed to fn from within Deliver, i.e. on whatever goroutine
// drives the client. A client without one completes requests silently.
func (c *Client) SetOnResult(fn func(body []byte, seq types.SeqNum)) { c.onResult = fn }

// Deliver implements transport.Node.
func (c *Client) Deliver(from types.NodeID, data []byte, now types.Time) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case *wire.ExecReply:
		if m.Executor != from {
			// A share counts for the authenticated sender only.
			c.Metrics.BadReplies++
			return
		}
		if c.answer(m.Entries) == nil {
			return
		}
		before := c.assembler.Rejected
		cert, _ := c.assembler.Add(m)
		c.Metrics.BadReplies += c.assembler.Rejected - before
		if cert != nil {
			c.acceptCert(cert)
		}
	case *wire.ReplyCert:
		// Every agreement replica relays each certificate: all but the
		// first find nothing outstanding and cost no signature check.
		if c.answer(m.Entries) == nil {
			return
		}
		if c.verifier.VerifyCert(m) != nil {
			c.Metrics.BadReplies++
			return
		}
		c.acceptCert(m)
	case *wire.ReadReply:
		c.onReadReply(m)
	}
}

// answer returns the entry that replies to the outstanding request, or nil
// when nothing is outstanding or the bundle does not address it.
func (c *Client) answer(entries []wire.Reply) *wire.Reply {
	if c.outstanding == nil {
		return nil
	}
	for i := range entries {
		if e := &entries[i]; e.Client == c.id && e.Timestamp == c.outstanding.Timestamp {
			return e
		}
	}
	return nil
}

// acceptCert completes the outstanding request if the certificate vouches
// for a reply to it.
func (c *Client) acceptCert(cert *wire.ReplyCert) {
	e := c.answer(cert.Entries)
	if e == nil {
		return
	}
	body := e.Body
	if c.sealer != nil {
		plain, err := c.sealer.OpenReply(body)
		if err != nil {
			c.Metrics.BadReplies++
			return
		}
		body = plain
	}
	// Track the primary for the next request's first transmission.
	c.firstTo = c.top.Primary(e.View)
	c.outstanding = nil
	c.Metrics.Replies++
	if c.onResult != nil {
		c.onResult(body, e.Seq)
	}
}

// Tick implements transport.Node: retransmit to all agreement replicas with
// exponential backoff (§3.1.1: retransmissions designate ALL).
func (c *Client) Tick(now types.Time) {
	c.tickRead(now)
	if c.outstanding == nil || now < c.deadline {
		return
	}
	c.Metrics.Retransmits++
	req := *c.outstanding
	req.ReplyToAll = true
	data := wire.Marshal(&req)
	for _, id := range c.top.Agreement {
		c.send(id, data)
	}
	c.interval *= 2
	c.deadline = now + c.interval
}
