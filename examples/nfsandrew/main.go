// nfsandrew: run the paper's modified Andrew benchmark (§5.4) against the
// replicated NFS service in three configurations — unreplicated, the BASE
// baseline, and the full privacy-firewall architecture — and print the
// per-phase table of Figure 6.
//
//	go run ./examples/nfsandrew
package main

import (
	"fmt"
	"log"

	"repro/saebft/paperfig"
)

func main() {
	cfg := paperfig.AndrewConfig{N: 1, Dirs: 3, FilesPerDir: 4, FileSize: 2048}
	fmt.Printf("Andrew-%d: %d dirs x %d files x %dB per iteration\n\n",
		cfg.N, cfg.Dirs, cfg.FilesPerDir, cfg.FileSize)

	runs, err := paperfig.RunAndrewComparison(cfg, 512)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s", "phase")
	for _, r := range runs {
		fmt.Printf(" %18s", r.Label)
	}
	fmt.Println()
	for p := 0; p < 5; p++ {
		fmt.Printf("%-8d", p+1)
		for _, r := range runs {
			fmt.Printf(" %18.1f", r.PhaseMs[p])
		}
		fmt.Println()
	}
	fmt.Printf("%-8s", "TOTAL")
	for _, r := range runs {
		fmt.Printf(" %18.1f", r.TotalMs)
	}
	fmt.Println("   (virtual ms)")

	norep, base, fw := runs[0], runs[1], runs[2]
	fmt.Printf("\nBASE is %.1fx no-replication; firewall is %.2fx BASE\n",
		base.TotalMs/norep.TotalMs, fw.TotalMs/base.TotalMs)
}
