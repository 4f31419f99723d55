package core

import (
	"testing"

	"baryon/internal/datagen"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// BenchmarkAccess measures the controller's raw simulation throughput on a
// mixed read/write stream — the hot loop of every experiment in this
// repository.
func BenchmarkAccess(b *testing.B) {
	cfg := testConfig()
	mix := datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}
	// Every write stores an all-zero line as version 1.
	store := hybrid.NewStore(func(blk hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		datagen.Filler(mix)(uint64(blk), dst)
	}, func(_ hybrid.BlockID, _ int, _ uint32, dst *[hybrid.CachelineSize]byte) {
		*dst = [hybrid.CachelineSize]byte{}
	})
	c := New(cfg, store, sim.NewStats())
	rng := sim.NewRNG(1)
	footprint := cfg.OSBlocks() * cfg.BlockBytes / 4
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		addr := rng.Uint64n(footprint) &^ 63
		if i%4 == 0 {
			store.WriteVersion(addr, 1)
			c.Access(now, addr, true, nil)
		} else {
			c.Access(now, addr, false, nil)
		}
		now += 40
	}
}

// BenchmarkAccessHot measures the fast-path (hit-dominated) throughput.
func BenchmarkAccessHot(b *testing.B) {
	cfg := testConfig()
	store := hybrid.NewStore(nil, nil)
	cfg.ZeroBlockOpt = false
	c := New(cfg, store, sim.NewStats())
	// Warm a small hot set.
	for blk := uint64(0); blk < 32; blk++ {
		for s := uint64(0); s < 4; s++ {
			c.Access(blk*100, blk*cfg.BlockBytes+s*256, false, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(1 << 20)
	for i := 0; i < b.N; i++ {
		blk := uint64(i) % 32
		c.Access(now, blk*cfg.BlockBytes+uint64(i%4)*256, false, nil)
		now += 40
	}
}
