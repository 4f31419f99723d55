// Cache vs flat: the same workloads run under both hybrid-memory schemes
// (Section II-A). The cache scheme hides the fast memory from the OS; the
// flat scheme exposes it as physical memory and migrates by swapping, which
// buys capacity at the cost of swap traffic. Baryon supports both with the
// same metadata machinery; this example shows the trade-off.
package main

import (
	"context"
	"fmt"
	"log"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/trace"
)

func main() {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 10000

	fmt.Println("workload            scheme  design     cycles     serveRate  slowMB")
	for _, name := range []string{"505.mcf_r", "549.fotonik3d_r", "YCSB-B"} {
		w, _ := trace.ByName(name)

		cacheCfg := cfg
		cacheCfg.Mode = config.ModeCache
		cacheRes, err := experiment.RunPairCtx(context.Background(), experiment.Pair{Cfg: cacheCfg, Workload: w, Design: experiment.DesignBaryon})
		if err != nil {
			log.Fatal(err)
		}

		flatCfg := cfg
		flatCfg.Mode = config.ModeFlat
		flatCfg.FullyAssociative = true
		flatRes, err := experiment.RunPairCtx(context.Background(), experiment.Pair{Cfg: flatCfg, Workload: w, Design: experiment.DesignBaryonFA})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-18s  cache   %-9s  %-9d  %6.1f%%   %6.1f\n",
			name, cacheRes.Design, cacheRes.Cycles, 100*cacheRes.FastServeRate,
			float64(cacheRes.SlowBytes)/(1<<20))
		fmt.Printf("%-18s  flat    %-9s  %-9d  %6.1f%%   %6.1f\n",
			name, flatRes.Design, flatRes.Cycles, 100*flatRes.FastServeRate,
			float64(flatRes.SlowBytes)/(1<<20))
	}
	fmt.Println("\nThe flat scheme keeps the fast capacity OS-visible but pays for")
	fmt.Println("swaps; the cache scheme adapts faster. Baryon runs both.")
}
