package saebft

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/replycert"
)

// Mode selects the replication architecture (§5.2 of the paper).
type Mode int

// Architectures under comparison.
const (
	// ModeSeparate splits agreement (3f+1 replicas) from execution
	// (2g+1 replicas) — the paper's headline architecture, Figure 1(b).
	ModeSeparate Mode = iota
	// ModeBase is the traditional coupled architecture: 3f+1 replicas
	// both agree and execute (Figure 1a).
	ModeBase
	// ModeFirewall is ModeSeparate plus the (h+1)² privacy-firewall grid
	// with sealed request/reply bodies (Figure 2c).
	ModeFirewall
)

// String returns the config-file spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "base"
	case ModeSeparate:
		return "separate"
	case ModeFirewall:
		return "firewall"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a config-file mode name. The empty string means
// ModeSeparate.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "base":
		return ModeBase, nil
	case "separate", "":
		return ModeSeparate, nil
	case "firewall":
		return ModeFirewall, nil
	default:
		return 0, fmt.Errorf("saebft: unknown mode %q", s)
	}
}

func (m Mode) coreMode() core.Mode {
	switch m {
	case ModeBase:
		return core.ModeBASE
	case ModeFirewall:
		return core.ModeFirewall
	default:
		return core.ModeSeparate
	}
}

// ReplyMode selects how clients authenticate reply certificates (§3.1.2).
type ReplyMode int

const (
	// ReplyQuorum accepts g+1 matching MAC-authenticated replies.
	ReplyQuorum ReplyMode = iota
	// ReplyThreshold accepts a single (g+1)-of-(2g+1) threshold RSA
	// signature; certificates are byte-identical regardless of which
	// correct executors answered (required behind the firewall).
	ReplyThreshold
)

// String returns the config-file spelling of the reply mode.
func (r ReplyMode) String() string {
	if r == ReplyThreshold {
		return "threshold"
	}
	return "quorum"
}

// ParseReplyMode parses a config-file reply-mode name. The empty string
// means ReplyQuorum.
func ParseReplyMode(s string) (ReplyMode, error) {
	switch s {
	case "quorum", "":
		return ReplyQuorum, nil
	case "threshold":
		return ReplyThreshold, nil
	default:
		return 0, fmt.Errorf("saebft: unknown reply mode %q", s)
	}
}

func (r ReplyMode) coreMode() replycert.Mode {
	if r == ReplyThreshold {
		return replycert.ModeThreshold
	}
	return replycert.ModeQuorum
}

// Result is one completed asynchronous invocation.
type Result struct {
	Reply []byte
	// Seq is the agreement sequence number the reply certified at — the
	// watermark a Session adopts so later certified reads observe this
	// write (zero when Err is non-nil).
	Seq uint64
	Err error
}

// Errors returned by the lifecycle and client surfaces.
var (
	// ErrClosed reports an operation on a closed cluster or client.
	ErrClosed = errors.New("saebft: closed")
	// ErrNotStarted reports an operation that requires Start first.
	ErrNotStarted = errors.New("saebft: cluster not started")
	// ErrTimeout reports an invocation that exceeded its timeout without
	// assembling a valid reply certificate.
	ErrTimeout = errors.New("saebft: request timed out")
	// ErrSimOnly reports a fault-injection hook invoked on a transport
	// that does not support it.
	ErrSimOnly = errors.New("saebft: operation requires the simulated transport")
)

// Info describes a built cluster's shape.
type Info struct {
	Mode       Mode
	F, G, H    int // tolerated faults: agreement, execution, firewall
	Agreement  int // number of agreement replicas (3f+1)
	Execution  int // number of execution replicas (2g+1); 0 in ModeBase
	FilterRows int // firewall rows (h+1); 0 outside ModeFirewall
	Filters    int // total filters ((h+1)²); 0 outside ModeFirewall
	Clients    int // logical clients backing one handle's pipeline
}

// Stats aggregates externally observable counters. Of the transport-level
// fields, MessagesDelivered and MessagesDropped are filled only on the
// simulated transport and Link only on TCP.
type Stats struct {
	Requests    uint64 // client requests issued
	Retransmits uint64 // client retransmissions
	Replies     uint64 // certified replies accepted
	BadReplies  uint64 // reply shares/certificates clients rejected

	// Certified fast read path (always zero in ModeBase and ModeFirewall,
	// which have no read path and serve every read through agreement).
	Reads          uint64 // certified-read probes issued by this process's clients
	ReadsCertified uint64 // probes that assembled a g+1 matching quorum
	ReadMismatches uint64 // probes every executor answered without such a quorum
	BadReadReplies uint64 // read replies clients rejected (signature, membership)
	ReadsServed    uint64 // reads answered by execution replicas in this process
	ReadsRefused   uint64 // reads those replicas refused (not read-only, lagging, sealed)

	// SharesRejected counts forged executor shares and certificates
	// rejected by the firewall filters and agreement-side message queues
	// hosted in this process: refused on arrival, failing their proof once
	// asked for it, or displaced by the executor's proven share.
	SharesRejected uint64

	// StorageFailures counts replicas in this process that have
	// fail-stopped on a durable-storage error (disk full, I/O failure).
	// Such a replica keeps its sockets open but stops executing; nonzero
	// here is the signal to go look at its data directory.
	StorageFailures uint64

	MessagesDelivered uint64 // sim only
	MessagesDropped   uint64 // sim only

	// Link aggregates TCP link-state counters — dials, authenticated
	// handshakes, rejects, frame/byte flow, bounded-queue drops — across
	// every endpoint this process runs (TCP transports only; all zero on
	// the simulated transport).
	Link LinkStats
}
