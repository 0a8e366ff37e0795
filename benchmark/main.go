// Command benchmark is the repository's benchmark of record: four
// workloads driven through the public repro/saebft API by a seeded,
// model-checked load generator (end-to-end metrics), then a traced pass on a
// single-goroutine harness over internal/core + transport.SimNet with timing
// wrappers around each layer (per-layer metrics), a micro pass over the
// layer primitives, and two probes. README.md documents every metric.
//
//	go run ./benchmark                       # everything, human-readable
//	go run ./benchmark -workload write-tcp   # one workload
//	go run ./benchmark -repeat 2             # run the set twice, compare within bounds
//
// The driver contract (BENCHMARK.json) runs
// `go run ./benchmark --workload W --seed N --seconds S --trace 0|1` and
// reads the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	traceOut string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four, then the per-layer passes)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of keys, operation mix and simulated network schedule")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per end-to-end run (six windows; a tenth more warms up first)")
	flag.IntVar(&o.trace, "trace", -1, "driver contract: 0 prints the end-to-end metrics as JSON, 1 the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run the end-to-end set this many times and compare the runs within the bounds")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file as JSON lines (with several workloads: <file>.<workload>)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run dispatches on the mode and reports whether every reply was correct
// (and, in repeat mode, every metric within its bound).
func run(o options) (bool, error) {
	selected := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return false, err
		}
		selected = []workload{*w}
	}
	switch {
	case o.trace >= 0:
		if len(selected) != 1 {
			return false, fmt.Errorf("-trace needs -workload")
		}
		return runContract(&selected[0], o)
	case o.repeat > 1:
		return runRepeat(selected, o)
	default:
		return runFull(selected, o)
	}
}

// contractLine is the driver contract's result object.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContract(attempted, failed int, ms []metric) error {
	line := contractLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]contractMetric{}}
	for _, m := range ms {
		line.Metrics[m.Name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
