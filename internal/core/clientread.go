package core

// The client half of the certified fast read path: fan a signed probe to
// every execution replica, assemble g+1 matching signed answers at or above
// the session floor, and report a definite mismatch (with a retry floor)
// when all 2g+1 executors have answered without such a quorum. Reads run
// beside the write path: a client may have one request AND one read
// outstanding at once, drawing their nonces from the same monotonic
// timestamp counter.

import (
	"errors"
	"fmt"

	"repro/internal/auth"
	"repro/internal/replycert"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// ErrNoReadPath reports that this client was built without a read verifier
// (privacy-firewall or BASE deployments).
var ErrNoReadPath = errors.New("core: certified reads unavailable in this configuration")

// ReadOutcome is the completion of one certified-read probe: either Result
// is non-nil (the read certified), or Err is replycert.ErrReadMismatch and
// Hint suggests the floor to retry at. Timeouts are the caller's concern
// (CancelRead), not an outcome.
type ReadOutcome struct {
	Result *replycert.ReadResult
	Hint   types.SeqNum
	Err    error
}

// SetReadSender routes read probes (and their retransmissions) through an
// alternate sender. The simulated transport binds reads to an auxiliary
// randomness plane so probing cannot perturb the deterministic delivery
// schedule of agreement traffic; TCP uses the normal sender.
func (c *Client) SetReadSender(send transport.Sender) { c.readSend = send }

// SetOnReadDone installs the read-completion callback, the read-path
// analogue of SetOnResult and the only way a read's outcome is reported.
func (c *Client) SetOnReadDone(fn func(ReadOutcome)) { c.onReadDone = fn }

// SubmitRead issues a certified-read probe for op to every execution
// replica, demanding answers computed at or above floor. It panics if a
// read is already outstanding (one read at a time per client, mirroring the
// paper's one-outstanding-request model).
func (c *Client) SubmitRead(op []byte, floor types.SeqNum, now types.Time) error {
	if c.read != nil {
		panic("client: read already outstanding")
	}
	if c.readVerifier == nil {
		return ErrNoReadPath
	}
	if c.sealer != nil {
		return ErrNoReadPath // sealed bodies cannot be queried in plaintext
	}
	c.ts++
	probe := &wire.ReadRequest{Client: c.id, Nonce: c.ts, Op: op, Floor: floor}
	att, err := c.scheme.Attest(auth.KindReadRequest, probe.Digest(), c.top.Execution)
	if err != nil {
		return fmt.Errorf("client: attesting read: %w", err)
	}
	probe.Att = att
	c.read = probe
	c.readAsm = replycert.NewReadAssembler(c.readVerifier, c.id, probe.Nonce, floor)
	c.readInterval = c.initialWait
	c.readDeadline = now + c.readInterval
	c.Metrics.Reads++
	data := wire.Marshal(probe)
	for _, id := range c.top.Execution {
		c.sendRead(id, data)
	}
	return nil
}

func (c *Client) sendRead(to types.NodeID, data []byte) {
	if c.readSend != nil {
		c.readSend(to, data)
		return
	}
	c.send(to, data)
}

// CancelRead abandons the outstanding read, if any: retransmission stops
// and late replies to it are ignored. The caller may SubmitRead again
// immediately.
func (c *Client) CancelRead() {
	c.read = nil
	c.readAsm = nil
}

// onReadReply feeds one executor's answer into the assembler.
func (c *Client) onReadReply(m *wire.ReadReply) {
	if c.read == nil || c.readAsm == nil {
		return // no probe outstanding (late or unsolicited reply)
	}
	if m.Client != c.id || m.Nonce != c.read.Nonce {
		c.Metrics.BadReadReplies++
		return
	}
	res, err := c.readAsm.Add(m)
	switch {
	case res != nil:
		c.Metrics.ReadsCertified++
		c.completeRead(ReadOutcome{Result: res})
	case errors.Is(err, replycert.ErrReadMismatch):
		c.Metrics.ReadMismatches++
		c.completeRead(ReadOutcome{Hint: c.readAsm.Hint(), Err: err})
	case err != nil:
		c.Metrics.BadReadReplies++
	}
}

func (c *Client) completeRead(out ReadOutcome) {
	c.read = nil
	c.readAsm = nil
	if c.onReadDone != nil {
		c.onReadDone(out)
	}
}

// tickRead retransmits the outstanding probe to every execution replica
// with exponential backoff (replies are idempotent: executors answer each
// probe copy statelessly and the assembler drops duplicates).
func (c *Client) tickRead(now types.Time) {
	if c.read == nil || now < c.readDeadline {
		return
	}
	c.Metrics.ReadRetransmits++
	data := wire.Marshal(c.read)
	for _, id := range c.top.Execution {
		c.sendRead(id, data)
	}
	c.readInterval *= 2
	c.readDeadline = now + c.readInterval
}
