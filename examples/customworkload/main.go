// Custom workload: model your own application's memory behaviour without
// touching the library. A workload is four numbers and a pattern — here, an
// in-memory analytics engine: a large column store scanned sequentially with
// a Zipf-hot dictionary, 30% of each 2 kB page live, moderately
// compressible integer-coded columns. The same definition can live in a
// JSON file and run via `baryonsim -workload-file` (see trace.LoadFile).
package main

import (
	"context"
	"fmt"
	"log"

	"baryon/internal/config"
	"baryon/internal/datagen"
	"baryon/internal/experiment"
	"baryon/internal/trace"
)

func main() {
	analytics := trace.Workload{
		Name:            "column-analytics",
		Pattern:         trace.PatternZipf,
		FootprintFactor: 3.0, // 3x the fast-memory capacity
		Shared:          true,
		BlockUtil:       0.3, // 30% of each page holds live column chunks
		WriteRatio:      0.05,
		BurstLines:      6,
		GapMean:         7,
		ZipfTheta:       0.85,
		// Integer-coded columns: small-int heavy with some raw strings.
		Mix: datagen.Mix{Weights: [5]float64{1, 5, 0, 1, 3}},
	}

	cfg := config.Scaled()
	cfg.AccessesPerCore = 10000

	fmt.Printf("custom workload %q (footprint %.0fx fast memory)\n\n",
		analytics.Name, analytics.FootprintFactor)
	var base float64
	for _, d := range []string{
		experiment.DesignSimple, experiment.DesignUnison,
		experiment.DesignDICE, experiment.DesignBaryon,
	} {
		res, err := experiment.RunPairCtx(context.Background(), experiment.Pair{Cfg: cfg, Workload: analytics, Design: d})
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = float64(res.Cycles)
		}
		fmt.Printf("  %-12s %.2fx vs Simple   serve %5.1f%%   slow traffic %5.1f MB\n",
			d, base/float64(res.Cycles), 100*res.FastServeRate,
			float64(res.SlowBytes)/(1<<20))
	}
	fmt.Println("\nTune the struct above (or a JSON file) to explore your own workload.")
}
