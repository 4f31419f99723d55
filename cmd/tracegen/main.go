// Command tracegen dumps the head of a workload's memory access stream in a
// simple text format (address, read/write, instruction gap), useful for
// inspecting the synthetic workloads or feeding external tools.
//
//	go run ./cmd/tracegen -workload pr.twi -n 30
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"baryon/internal/config"
	"baryon/internal/trace"
)

func main() {
	workload := flag.String("workload", "505.mcf_r", "workload name")
	core := flag.Int("core", 0, "core whose stream to dump")
	n := flag.Int("n", 50, "number of accesses")
	seed := flag.Uint64("seed", 1, "stream seed")
	replay := flag.Bool("replay", false, "emit the machine-readable replay format for every core of the scaled config (core op addr gap)")
	flag.Parse()

	w, ok := trace.ByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := config.Scaled()
	fp2k := cfg.TraceFastBlocks()
	s := w.NewStream(*core, fp2k, *seed)

	out := bufio.NewWriter(os.Stdout)
	if *replay {
		fmt.Fprintf(out, "# %s replay trace, %d accesses per core\n", w.Name, *n)
		for c := 0; c < cfg.Cores; c++ {
			s := w.NewStream(c, fp2k, *seed)
			for i := 0; i < *n; i++ {
				if err := trace.WriteReplayRecord(out, c, s.Next()); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		flushOrExit(out)
		return
	}
	fmt.Fprintf(out, "# %s core=%d footprint=%d blocks\n", w.Name, *core, w.Blocks(fp2k))
	for i := 0; i < *n; i++ {
		a := s.Next()
		op := "R"
		if a.Write {
			op = "W"
		}
		fmt.Fprintf(out, "%s 0x%012x gap=%d block=%d sub=%d\n",
			op, a.Addr, a.Gap, a.Addr/2048, a.Addr%2048/256)
	}
	flushOrExit(out)
}

// flushOrExit drains the buffered writer; a deferred Flush would silently
// swallow a full disk or closed pipe, so surface the error in the exit code.
func flushOrExit(out *bufio.Writer) {
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
