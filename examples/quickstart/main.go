// Quickstart: build a Baryon memory controller directly, issue reads and
// writes against it, and inspect what the controller did — the smallest
// possible tour of the library's core API (config -> store -> controller).
package main

import (
	"fmt"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

func main() {
	// A small hybrid memory: 4 MB DDR4-class fast memory (with a 256 kB
	// stage area carved out) in front of 32 MB of NVM-class slow memory.
	cfg := config.Scaled()
	cfg.FastBytes = 4 << 20
	cfg.StageBytes = 256 << 10
	cfg.SlowBytes = 32 << 20

	// The store is the memory image, and it holds versions, not bytes. Its
	// first function fills a block on the block's first read: a nil filler
	// means untouched memory reads as zeros; here we make every block hold
	// its own block number in every word, which compresses extremely well.
	// The second makes a written line's bytes from its write version when a
	// read covers it; version 0 must be the fill's own bytes. Here every
	// later version of a line holds a greeting.
	fill := func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			v := uint64(b)
			for k := 0; k < 8; k++ {
				dst[i+k] = byte(v >> (8 * k))
			}
		}
	}
	store := hybrid.NewStore(fill, func(b hybrid.BlockID, line int, version uint32, dst *[hybrid.CachelineSize]byte) {
		if version == 0 {
			var blk [hybrid.BlockSize]byte
			fill(b, &blk)
			copy(dst[:], blk[line*hybrid.CachelineSize:])
			return
		}
		*dst = [hybrid.CachelineSize]byte{}
		copy(dst[:], "hello, hybrid memory")
	})

	stats := sim.NewStats()
	ctrl := core.New(cfg, store, stats)

	// Touch a working set: sixteen 2 kB blocks, several sub-blocks each,
	// twice — the second round should hit fast memory.
	now := uint64(0)
	for round := 0; round < 2; round++ {
		for block := uint64(0); block < 16; block++ {
			for sub := uint64(0); sub < 4; sub++ {
				addr := block*2048 + sub*256
				res := ctrl.Access(now, addr, false, nil)
				now = res.Done + 50
			}
		}
	}

	// Write one line and read it back. The writer stores the line's new
	// version, then calls Access, which places and accounts it; Access
	// returns timing only, and the line's content is read from the store.
	addr := uint64(3 * 2048)
	store.WriteVersion(addr, 1)
	ctrl.Access(now, addr, true, nil)
	ctrl.Access(now+100, addr, false, nil)
	fmt.Printf("read back: %q\n", store.Line(addr)[:20])

	fmt.Printf("accesses:        %d\n", stats.Get("baryon.accesses"))
	fmt.Printf("served by fast:  %d\n", stats.Get("baryon.servedFast"))
	fmt.Printf("stage hits:      %d\n", stats.Get("baryon.stage.hits"))
	fmt.Printf("ranges staged:   %d (mean CF %.2f — this data compresses at CF 4)\n",
		stats.Get("baryon.rangeFetches"),
		float64(stats.Get("baryon.rangeCFSum"))/float64(stats.Get("baryon.rangeFetches")))
	fmt.Printf("commits:         %d\n", stats.Get("baryon.commits"))
	fmt.Printf("slow bytes read: %d\n", stats.Get("NVM.bytesRead"))
	if msg := ctrl.CheckInvariants(); msg != "" {
		fmt.Printf("INVARIANT VIOLATION: %s\n", msg)
	} else {
		fmt.Println("structural invariants: ok")
	}
}
