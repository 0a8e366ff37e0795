// Package registry is the shared catalog of replicated applications. The
// public saebft API resolves application names ("kv", "counter", "nfs",
// "null") through it, both in deployment config files and in
// saebft.WithApp, so the two mean the same thing, and
// embedders can register their own state machines under new names.
package registry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/apps/counter"
	"repro/internal/apps/kv"
	"repro/internal/apps/nfs"
	"repro/internal/apps/nullsrv"
	"repro/internal/sm"
)

// Entry describes one registered application.
type Entry struct {
	// Name is the identifier used in deployment configs and WithApp.
	Name string

	// New builds one fresh state machine instance per hosting replica.
	New func() sm.StateMachine

	// Encode optionally translates command-line words into an encoded
	// operation, enabling the generic CLI client. Nil when the app has no
	// sensible textual operation syntax.
	Encode func(args []string) ([]byte, error)

	// Usage is a one-line operation synopsis shown by CLI tools; empty
	// when Encode is nil.
	Usage string
}

var (
	mu      sync.RWMutex
	entries = make(map[string]Entry)
)

// Register adds or replaces an application. It panics on an empty name or
// nil factory — registration is a programming-time act, not a runtime one.
func Register(e Entry) {
	if e.Name == "" {
		panic("registry: entry has empty name")
	}
	if e.New == nil {
		panic("registry: entry " + e.Name + " has nil factory")
	}
	mu.Lock()
	defer mu.Unlock()
	entries[e.Name] = e
}

// Lookup resolves a name. The empty name resolves to "kv", the historical
// default of deployment configs.
func Lookup(name string) (Entry, bool) {
	if name == "" {
		name = "kv"
	}
	mu.RLock()
	defer mu.RUnlock()
	e, ok := entries[name]
	return e, ok
}

// Factory resolves a name straight to a state-machine factory.
func Factory(name string) (func() sm.StateMachine, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown app %q (have %v)", name, Names())
	}
	return e.New, nil
}

// Names lists registered applications in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(entries))
	for n := range entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EncodeOp translates command-line words into an operation for the named
// application.
func EncodeOp(app string, args []string) ([]byte, error) {
	e, ok := Lookup(app)
	if !ok {
		return nil, fmt.Errorf("registry: unknown app %q (have %v)", app, Names())
	}
	if e.Encode == nil {
		return nil, fmt.Errorf("registry: app %q has no CLI encoding; drive it programmatically", e.Name)
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("registry: no operation given (%s)", e.Usage)
	}
	return e.Encode(args)
}

func encodeKV(args []string) ([]byte, error) {
	switch args[0] {
	case "put":
		if len(args) != 3 {
			return nil, fmt.Errorf("usage: put KEY VALUE")
		}
		return kv.Put(args[1], []byte(args[2])), nil
	case "get":
		if len(args) != 2 {
			return nil, fmt.Errorf("usage: get KEY")
		}
		return kv.GetOp(args[1]), nil
	case "del":
		if len(args) != 2 {
			return nil, fmt.Errorf("usage: del KEY")
		}
		return kv.Del(args[1]), nil
	case "list":
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		return kv.List(prefix), nil
	case "cas":
		if len(args) != 4 {
			return nil, fmt.Errorf("usage: cas KEY OLD NEW")
		}
		return kv.CAS(args[1], []byte(args[2]), []byte(args[3])), nil
	default:
		return nil, fmt.Errorf("unknown kv operation %q", args[0])
	}
}

func encodeCounter(args []string) ([]byte, error) {
	switch args[0] {
	case "inc":
		return []byte("inc"), nil
	case "add":
		if len(args) != 2 {
			return nil, fmt.Errorf("usage: add N")
		}
		if _, err := strconv.Atoi(args[1]); err != nil {
			return nil, fmt.Errorf("add: %q is not a number", args[1])
		}
		return []byte("add " + args[1]), nil
	case "get-count", "get":
		return []byte("get"), nil
	default:
		return nil, fmt.Errorf("unknown counter operation %q", args[0])
	}
}

func init() {
	Register(Entry{
		Name:   "kv",
		New:    func() sm.StateMachine { return kv.New() },
		Encode: encodeKV,
		Usage:  "put K V | get K | del K | list [P] | cas K OLD NEW",
	})
	Register(Entry{
		Name:   "counter",
		New:    func() sm.StateMachine { return counter.New() },
		Encode: encodeCounter,
		Usage:  "inc | add N | get-count",
	})
	Register(Entry{
		Name: "nfs",
		New:  func() sm.StateMachine { return nfs.New() },
	})
	Register(Entry{
		Name: "null",
		New:  func() sm.StateMachine { return nullsrv.New(128) },
	})
}
