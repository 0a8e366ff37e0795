package saebft

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/replycert"
	"repro/internal/wire"
)

// maxReadAttempts bounds how many fast-path probes one ReadCertified call
// makes before falling back to full agreement: the initial probe plus
// retries at the raised floor a mismatch hints at.
const maxReadAttempts = 3

// Session orders a sequence of operations for read-your-writes: every
// Invoke through the session advances its watermark to the sequence number
// the reply certified at, and every ReadCertified demands answers computed
// at or above that watermark — so a session's reads always observe its own
// completed writes, without paying for an agreement round per read.
//
// Obtain one from Client.Session. The client handle itself carries an
// implicit session spanning all its invocations, which is what
// Client.ReadCertified reads against. A Session is safe for concurrent use;
// its watermark only advances.
type Session struct {
	h     *Client
	floor atomic.Uint64
}

// Watermark reports the session's current read floor: the highest sequence
// number any of its writes certified at (or AdvanceTo raised it to).
func (s *Session) Watermark() uint64 { return s.floor.Load() }

// AdvanceTo raises the session's read floor to at least seq; lower values
// are ignored (the watermark is monotonic). Use it to transfer a watermark
// between sessions — e.g. resuming a client's session from a cookie, or
// forcing the next read to wait for another client's write whose Result.Seq
// was shared out of band.
func (s *Session) AdvanceTo(seq uint64) {
	for {
		cur := s.floor.Load()
		if seq <= cur || s.floor.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Invoke submits one operation through the session's handle and advances
// the session watermark past it on success.
func (s *Session) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	res := s.h.invokeFull(ctx, op)
	if res.Err == nil {
		s.AdvanceTo(res.Seq)
	}
	return res.Reply, res.Err
}

// ReadCertified serves one read-only operation through the certified fast
// read path at this session's watermark; see Client.ReadCertified for the
// fast-path/fallback contract.
func (s *Session) ReadCertified(ctx context.Context, op []byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h := s.h
	rt, err := h.runtime()
	if err != nil {
		return nil, err
	}
	idx, err := h.lease(ctx)
	if err != nil {
		return nil, err
	}
	h.admit()
	defer h.release(idx)
	h.reads.Add(1)

	// Bodies that look like multi-op envelopes are escaped exactly as the
	// write path escapes them, so the executors' envelope unpacking reads
	// the operation the caller wrote.
	wrapped := wire.IsMultiOp(op)
	probeOp := op
	if wrapped {
		probeOp = wire.PackOps([][]byte{op})
	}

	floor := s.Watermark()
	for attempt := 0; attempt < maxReadAttempts; attempt++ {
		att, err := rt.readCertified(ctx, idx, probeOp, floor, h.readAttemptTimeout(ctx))
		switch {
		case errors.Is(err, core.ErrNoReadPath), errors.Is(err, ErrTimeout):
			// No read path in this deployment, or the probe could not
			// complete in time (crashed or partitioned executors): serve
			// through agreement.
			return s.fallback(ctx, rt, idx, op)
		case err != nil:
			return nil, err
		case att.mismatch:
			if att.hint > floor && attempt < maxReadAttempts-1 {
				// Executors disagree at this floor; retry where a correct
				// majority can meet (the hint is the (g+1)'th-highest
				// watermark seen, so it never chases a Byzantine claim).
				floor = att.hint
				s.h.readRetries.Add(1)
				continue
			}
			return s.fallback(ctx, rt, idx, op)
		case att.refused:
			// g+1 matching refusals certify that this operation must go
			// through full agreement (not read-only, no query support).
			return s.fallback(ctx, rt, idx, op)
		}
		s.AdvanceTo(att.seq)
		h.readsCertified.Add(1)
		if !wrapped {
			return att.body, nil
		}
		bodies, err := replycert.SplitOpReplies(att.body, 1)
		if err != nil {
			return nil, err
		}
		return bodies[0], nil
	}
	return s.fallback(ctx, rt, idx, op)
}

// fallback serves a read through full agreement on the already-leased
// logical client, advancing the session like any other write.
func (s *Session) fallback(ctx context.Context, rt clusterRuntime, idx int, op []byte) ([]byte, error) {
	s.h.readFallbacks.Add(1)
	body, seq, err := s.h.invokeSingle(ctx, rt, idx, op)
	if err == nil {
		res := Result{Reply: body, Seq: seq}
		s.AdvanceTo(seq)
		s.h.noteWrite(res)
	}
	return body, err
}

// readAttemptTimeout bounds one fast-path probe: the configured read
// timeout (WithReadTimeout), defaulting to a fraction of the invoke
// timeout — a probe is one round trip to the execution replicas, so
// waiting the full agreement timeout before falling back would forfeit the
// fast path's latency advantage — and never beyond the context deadline.
func (h *Client) readAttemptTimeout(ctx context.Context) time.Duration {
	t := h.readTimeout
	if t == 0 {
		t = h.timeout / 4
		if t == 0 {
			t = time.Second
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if d := time.Until(dl); d < t {
			t = d
		}
	}
	return t
}
