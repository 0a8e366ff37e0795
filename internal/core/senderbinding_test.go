package core

import (
	"testing"

	"repro/internal/auth"
	"repro/internal/replycert"
	"repro/internal/threshold"
	"repro/internal/types"
	"repro/internal/wire"
)

// An executor's share counts for the transport-authenticated sender, never
// for whoever the message names: otherwise any peer could park a forgery in
// an honest executor's slot, which an assembler that holds shares unproven
// would have to spend a proof to clear.

// thresholdShareFrom builds exec's genuine threshold share over es.
func thresholdShareFrom(t *testing.T, b *Builder, exec types.NodeID, es []wire.Reply) *wire.ExecReply {
	t.Helper()
	sh, err := b.Mat.ThresholdShare(exec).Sign(threshold.NewSeededReader("binding"), wire.BundleDigest(es))
	if err != nil {
		t.Fatal(err)
	}
	return &wire.ExecReply{Entries: es, Executor: exec, Share: sh.Marshal()}
}

func TestAgreementNodeBindsShareToSender(t *testing.T) {
	b, err := NewBuilder(counterOpts(func(o *Options) { o.ReplyMode = replycert.ModeThreshold }))
	if err != nil {
		t.Fatal(err)
	}
	var toClient int
	node, _, queue, err := b.AgreementNode(b.Top.Agreement[1], func(to types.NodeID, data []byte) {
		if to == b.Top.Clients[0] {
			toClient++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := b.Top.Execution[0], b.Top.Execution[1], b.Top.Execution[2]
	es := []wire.Reply{{View: 0, Seq: 1, Client: b.Top.Clients[0], Timestamp: 1, Body: []byte("1")}}

	// X names Y over garbage that passes the free checks.
	forged := thresholdShareFrom(t, b, y, es)
	sh, _ := threshold.UnmarshalSigShare(forged.Share)
	sh.Xi.Add(sh.Xi, sh.Xi)
	forged.Share = sh.Marshal()
	node.Deliver(x, wire.Marshal(forged), 0)
	node.Deliver(b.Top.Agreement[0], wire.Marshal(forged), 0)
	if queue.Metrics.SharesRejected != 2 {
		t.Fatalf("rejected = %d, want 2", queue.Metrics.SharesRejected)
	}
	// Y's slot is untouched: Y's real share and one more certify at once,
	// and nothing of Y's is evicted on the way.
	node.Deliver(y, wire.Marshal(thresholdShareFrom(t, b, y, es)), 0)
	node.Deliver(z, wire.Marshal(thresholdShareFrom(t, b, z, es)), 0)
	if queue.Metrics.CertsAccepted != 1 || toClient != 1 {
		t.Fatalf("certs accepted = %d, relayed = %d; the named executor's real share did not certify", queue.Metrics.CertsAccepted, toClient)
	}
	if queue.Metrics.SharesRejected != 2 {
		t.Errorf("rejected = %d after the real shares, want still 2", queue.Metrics.SharesRejected)
	}
}

func TestClientBindsShareToSender(t *testing.T) {
	w := newClientWorld(t, func(o *Options) { o.ReplyMode = replycert.ModeQuorum })
	if err := w.cl.Submit([]byte("inc"), 0); err != nil {
		t.Fatal(err)
	}
	top := w.b.Top
	es := []wire.Reply{{View: 0, Seq: 1, Client: top.Clients[0], Timestamp: 1, Body: []byte("1")}}
	share := func(exec types.NodeID) *wire.ExecReply {
		dests := append([]types.NodeID{top.Clients[0]}, top.Agreement...)
		att, err := w.b.replyAuth(exec).Attest(auth.KindReply, wire.BundleDigest(es), dests)
		if err != nil {
			t.Fatal(err)
		}
		return &wire.ExecReply{Entries: es, Executor: exec, Att: att}
	}
	x, y := top.Execution[0], top.Execution[1]
	// Y's genuine share relayed by X is not Y speaking.
	w.cl.Deliver(x, wire.Marshal(share(y)), 0)
	if w.cl.Metrics.BadReplies != 1 {
		t.Fatalf("bad replies = %d, want 1", w.cl.Metrics.BadReplies)
	}
	w.cl.Deliver(x, wire.Marshal(share(x)), 0)
	if w.res.arrived() {
		t.Fatal("a relayed share counted toward the quorum")
	}
	w.cl.Deliver(y, wire.Marshal(share(y)), 0)
	if !w.res.arrived() || w.res.last() != "1" {
		t.Fatalf("results = %q", w.res.bodies)
	}
}

func TestClientDropsCertificatesItDoesNotAwait(t *testing.T) {
	w := newClientWorld(t, func(o *Options) { o.ReplyMode = replycert.ModeQuorum })
	top := w.b.Top
	forged := func(ts types.Timestamp) []byte {
		es := []wire.Reply{{Seq: 1, Client: top.Clients[0], Timestamp: ts, Body: []byte("forged")}}
		return wire.Marshal(&wire.ReplyCert{Entries: es})
	}
	// Nothing outstanding, or not the outstanding request: dropped before
	// the certificate is verified, so not even counted as bad.
	w.cl.Deliver(top.Agreement[0], forged(1), 0)
	if err := w.cl.Submit([]byte("inc"), 0); err != nil {
		t.Fatal(err)
	}
	w.cl.Deliver(top.Agreement[0], forged(7), 0)
	if w.cl.Metrics.BadReplies != 0 {
		t.Fatalf("bad replies = %d: a certificate nobody awaits was verified", w.cl.Metrics.BadReplies)
	}
	// The one that claims to answer the outstanding request is verified.
	w.cl.Deliver(top.Agreement[0], forged(1), 0)
	if w.cl.Metrics.BadReplies != 1 || w.res.arrived() {
		t.Fatalf("bad replies = %d, has result = %v", w.cl.Metrics.BadReplies, w.res.arrived())
	}
}
