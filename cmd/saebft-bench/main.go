// Command saebft-bench regenerates the paper's evaluation tables and
// figures (§5) on the simulated cluster with compute-time accounting:
//
//	saebft-bench -figure all          # everything, quick scale
//	saebft-bench -figure 3            # null-server latency table
//	saebft-bench -figure 4            # analytic relative-cost model
//	saebft-bench -figure 5            # response time vs load and bundle size
//	saebft-bench -figure 6            # Andrew-N phase times
//	saebft-bench -figure 7            # Andrew-N with failures
//	saebft-bench -figure all -scale full   # longer runs, 1024-bit threshold keys
//
// Throughput and latency of the system itself are measured by the
// repository's benchmark (go run ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/saebft/paperfig"
)

func main() {
	var (
		figure = flag.String("figure", "all", "which figure to regenerate: 3, 4, 5, 6, 7, or all")
		scale  = flag.String("scale", "quick", "run scale: quick or full")
	)
	flag.Parse()

	var sc paperfig.Scale
	switch *scale {
	case "quick":
		sc = paperfig.Quick
	case "full":
		sc = paperfig.Full
	default:
		fmt.Fprintf(os.Stderr, "saebft-bench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	figures := paperfig.Figures()
	if *figure != "all" {
		figures = []string{*figure}
	}
	for _, fig := range figures {
		fmt.Printf("=== Figure %s ===\n", fig)
		out, err := paperfig.RunFigure(fig, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "saebft-bench: figure %s: %v\n", fig, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
