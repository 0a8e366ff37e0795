package core

import (
	"testing"

	"repro/internal/execnode"
	"repro/internal/types"
)

// BenchmarkCertifiedReadAuth times one certified read's authentication
// round through the nodes a deployment builds: the client attests its probe
// to the three executors, each verifies it and attests its answer, and the
// client verifies answers until g+1 match. Wire encoding and the counter's
// query ride along; no network, agreement or timers run.
func BenchmarkCertifiedReadAuth(b *testing.B) {
	bld, err := NewBuilder(counterOpts(nil))
	if err != nil {
		b.Fatal(err)
	}
	type frame struct {
		from, to types.NodeID
		data     []byte
	}
	var out []frame
	sender := func(from types.NodeID) func(types.NodeID, []byte) {
		return func(to types.NodeID, data []byte) { out = append(out, frame{from, to, data}) }
	}
	client := bld.Top.Clients[0]
	cl, err := bld.ClientNode(client, sender(client))
	if err != nil {
		b.Fatal(err)
	}
	done := false
	cl.SetOnReadDone(func(o ReadOutcome) {
		if o.Result == nil {
			b.Fatalf("read did not certify: %v", o.Err)
		}
		done = true
	})
	execs := make(map[types.NodeID]*execnode.Replica)
	for _, id := range bld.Top.Execution {
		if execs[id], _, err = bld.ExecNode(id, sender(id)); err != nil {
			b.Fatal(err)
		}
	}
	op := []byte("get")
	b.ReportAllocs()
	for b.Loop() {
		out, done = out[:0], false
		if err := cl.SubmitRead(op, 0, 0); err != nil {
			b.Fatal(err)
		}
		probes := append([]frame(nil), out...)
		out = out[:0]
		for _, p := range probes {
			execs[p.to].Deliver(p.from, p.data, 0)
		}
		for _, r := range out {
			if done {
				break
			}
			cl.Deliver(r.from, r.data, 0)
		}
		if !done {
			b.Fatal("read did not complete")
		}
	}
}
