package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SimDeterminism polices the replica-determinism contract in the consensus
// packages (pbft, execnode, checkpoint, sm, wire, replycert, threshold):
// agreement needs 2f+1 — and execution g+1 — independently computed digests
// to match bit-for-bit, so nothing on those paths may read a wall clock,
// draw from a shared random source, or serialize map contents in Go's
// randomized iteration order. Three patterns are flagged:
//
//   - time.Now: replicas act on the protocol clock (types.Time handed to
//     Receive/Tick) and on the primary's agreed nondeterminism, never on
//     their own wall clock.
//   - the global math/rand / math/rand/v2 functions: any randomness must be
//     the agreed PRF output (types.ComputeNonDetRand) or an explicitly
//     seeded local source.
//   - ranging over a map while feeding an order-sensitive sink — message
//     construction or encoding, digests, hash writes, WAL appends, sends,
//     or a slice append that no later sort canonicalizes.
//   - reading the metrics/trace plane: inside the deterministic packages
//     the repro/internal/obs surface is write-only (registration plus
//     Inc/Add/Set/Observe/Record, and the obs.L / obs.Seconds helpers), so
//     observability can never feed digests, encoders, or WAL appends. A
//     replica whose behavior depends on its own counters diverges from one
//     whose operator scraped at a different moment.
//
// Order-insensitive map loops (counting, max-tracking, set inserts,
// deletes) are not flagged, and the codebase's standard collect-then-sort
// idiom is recognized: an append inside a map range is fine when the
// enclosing function sorts afterwards.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "no wall clock, global randomness, or map-iteration-order dependence in the deterministic consensus packages",
	Run:  runSimDeterminism,
}

func runSimDeterminism(p *Pass) {
	if !baseIn(p.Path, "pbft", "execnode", "checkpoint", "sm", "wire", "replycert", "threshold") {
		return
	}
	for _, file := range p.Files {
		funcBodies(file, func(name string, body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isPkgFunc(p.Info, n, "time", "Now") {
						p.Reportf(n.Pos(), "time.Now in a deterministic package; use the protocol clock or agreed nondeterminism")
					}
					if f := funcObj(p.Info, n); f != nil && isGlobalRand(f) {
						p.Reportf(n.Pos(), "global %s.%s in a deterministic package; use the agreed PRF or a seeded local source",
							f.Pkg().Path(), f.Name())
					}
					if f := funcObj(p.Info, n); f != nil && f.Pkg() != nil &&
						f.Pkg().Path() == "repro/internal/obs" && !obsWriteOnly(f) {
						p.Reportf(n.Pos(), "obs.%s in a deterministic package; the metrics/trace plane is write-only here (registration, Inc/Add/Set/Observe/Record, obs.L, obs.Seconds)",
							f.Name())
					}
				case *ast.RangeStmt:
					if t := p.Info.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							checkMapRange(p, body, n)
						}
					}
				}
				return true
			})
		})
	}
}

// isGlobalRand reports package-level draws from the shared math/rand
// sources. Constructors for local, explicitly seeded generators stay legal.
func isGlobalRand(f *types.Func) bool {
	if f.Pkg() == nil || f.Signature().Recv() != nil {
		return false
	}
	switch f.Pkg().Path() {
	case "math/rand", "math/rand/v2":
	default:
		return false
	}
	return !strings.HasPrefix(f.Name(), "New")
}

// obsWriteOnly reports whether an obs-package callee is on the write-only
// allowlist for deterministic packages: series registration on the
// Registry, the instrument write methods, trace recording, and the label /
// unit helpers. Everything else — Value, Sum, Snapshot, WritePrometheus,
// Dump, Total, ServeOps, constructors — is a read of (or a door into) the
// observability plane and has no business on a consensus path.
func obsWriteOnly(f *types.Func) bool {
	recv := f.Signature().Recv()
	if recv == nil {
		switch f.Name() {
		case "L", "Seconds":
			return true
		}
		return false
	}
	t := recv.Type()
	switch {
	case namedType(t, "repro/internal/obs", "Registry"):
		switch f.Name() {
		case "Counter", "Gauge", "Histogram", "CounterFunc", "GaugeFunc", "Unregister":
			return true
		}
	case namedType(t, "repro/internal/obs", "Counter"),
		namedType(t, "repro/internal/obs", "Gauge"):
		switch f.Name() {
		case "Inc", "Add", "Set":
			return true
		}
	case namedType(t, "repro/internal/obs", "Histogram"):
		return f.Name() == "Observe"
	case namedType(t, "repro/internal/obs", "Tracer"):
		return f.Name() == "Record"
	}
	return false
}

// checkMapRange flags order-sensitive sinks inside a map-range body.
func checkMapRange(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && !sortsAfter(p, fnBody, rng) {
				p.Reportf(call.Pos(), "append inside map iteration with no later sort; iteration order leaks into an ordered sequence")
			}
			return true
		}
		if sink, ok := orderSink(p, call); ok {
			p.Reportf(call.Pos(), "%s inside map iteration; iteration order leaks into %s", calleeName(call), sink)
		}
		return true
	})
}

// orderSink classifies calls whose argument order becomes externally
// visible bytes: encoders, digests, hash writes, WAL appends, and sends.
func orderSink(p *Pass, call *ast.CallExpr) (string, bool) {
	if isSenderCall(p.Info, call) {
		return "the send order", true
	}
	switch name := calleeName(call); {
	case name == "broadcast" || name == "broadcastExec":
		return "the send order", true
	case name == "Marshal" || strings.HasPrefix(name, "Encode"):
		if f := funcObj(p.Info, call); f != nil && strings.HasPrefix(f.Pkg().Path(), "repro/") {
			return "the encoded message", true
		}
	case strings.HasPrefix(name, "Digest") || strings.HasPrefix(name, "Sum"):
		if f := funcObj(p.Info, call); f != nil {
			return "a digest", true
		}
	case name == "Write":
		// Hash or canonical-encoder writes; ordinary io is not on the
		// deterministic paths.
		if rt := recvOf(p.Info, call); namedType(rt, "hash", "Hash") || namedType(rt, "repro/internal/wire", "Writer") {
			return "a digest or canonical encoding", true
		}
	case name == "Append":
		if isStoreCall(p.Info, call, "Append") {
			return "the WAL record order", true
		}
	}
	return "", false
}

// sortsAfter reports whether the enclosing function canonicalizes order
// after the loop: any sort.* / slices.Sort* call lexically following the
// range statement.
func sortsAfter(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if f := funcObj(p.Info, call); f != nil && f.Pkg() != nil {
			switch f.Pkg().Path() {
			case "sort":
				found = true
			case "slices":
				if strings.Contains(f.Name(), "Sort") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
