package saebft

import (
	"repro/internal/apps/registry"
	"repro/internal/sm"
	"repro/internal/types"
)

// StateMachine is the deterministic application hosted by execution
// replicas (§2): given the same operations and the same agreed
// nondeterministic inputs, all correct replicas transition identically.
//
// Execute must be deterministic — no clocks, no randomness, no iteration
// over unordered maps; NonDet carries the agreement cluster's oblivious
// nondeterminism (timestamp, pseudo-random bits) instead. Checkpoint and
// Restore must converge: Restore(Checkpoint(state)) == state on any
// replica.
type StateMachine = sm.StateMachine

// NonDet is the per-batch agreed nondeterministic input passed to Execute.
type NonDet = types.NonDet

// StateMachineFunc adapts a stateless function to StateMachine (useful for
// echo-style services with nothing to checkpoint).
func StateMachineFunc(f func(op []byte, nd NonDet) []byte) StateMachine {
	return sm.Func(f)
}

// RegisterApp adds an application to the shared registry, making its name
// usable in WithApp and in deployment config files. Registering an existing
// name replaces it. The factory is called once per hosting replica.
func RegisterApp(name string, factory func() StateMachine) {
	registry.Register(registry.Entry{
		Name: name,
		New:  func() sm.StateMachine { return factory() },
	})
}

// Apps lists registered application names in sorted order. The built-ins
// are "kv" (a key-value store), "counter", "nfs" (the paper's NFS
// service), and "null" (the §5 null server).
func Apps() []string { return registry.Names() }

// EncodeOp translates command-line words into an operation for the named
// application — e.g. EncodeOp("kv", "put", "greeting", "hello"). It fails
// for apps registered without a CLI encoding.
func EncodeOp(app string, args ...string) ([]byte, error) {
	return registry.EncodeOp(app, args)
}

// AppUsage returns the one-line CLI synopsis for the named app, or "".
func AppUsage(app string) string {
	e, ok := registry.Lookup(app)
	if !ok {
		return ""
	}
	return e.Usage
}

// appFactory resolves a registered name to an internal factory.
func appFactory(name string) (func() sm.StateMachine, error) {
	return registry.Factory(name)
}
