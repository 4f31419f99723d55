package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"baryon/internal/config"
	"baryon/internal/datagen"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// integrityErr is the non-fatal core integrity check used by property
// tests: it drives random traffic and returns the first divergence from the
// functional reference, or nil.
func integrityErr(cfg config.Config, accesses int, seed uint64) error {
	mix := datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}
	store, writeLine := payloadStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		datagen.Filler(mix)(uint64(b), dst)
	})
	c := New(cfg, store, sim.NewStats())
	ref := newRef(mix)
	rng := sim.NewRNG(seed)
	footprint := cfg.OSBlocks() * cfg.BlockBytes / 4
	now := uint64(0)
	for i := 0; i < accesses; i++ {
		addr := rng.Uint64n(footprint) &^ 63
		c.AddInstructions(8)
		if rng.Bool(0.35) {
			data := make([]byte, 64)
			for j := range data {
				data[j] = byte(rng.Uint64() >> 32)
			}
			if rng.Bool(0.5) {
				for j := range data {
					data[j] = 0
				}
			}
			ref.write(addr, data)
			writeLine(addr, data)
			c.Access(now, addr, true, nil)
		} else {
			res := c.Access(now, addr, false, nil)
			if !bytes.Equal(c.store.Line(addr), ref.line(addr)) {
				return fmt.Errorf("access %d at %#x: read diverged", i, addr)
			}
			for _, p := range res.Prefetched {
				if !bytes.Equal(c.store.Line(p), ref.line(p)) {
					return fmt.Errorf("access %d at %#x: prefetched line %#x diverged", i, addr, p)
				}
			}
		}
		now += 40
	}
	if msg := c.CheckInvariants(); msg != "" {
		return fmt.Errorf("invariant: %s", msg)
	}
	return nil
}

// TestIntegrityRandomConfigsQuick property-tests the whole controller: any
// combination of the design knobs must preserve data integrity and the
// structural invariants under random traffic.
func TestIntegrityRandomConfigsQuick(t *testing.T) {
	f := func(seed uint16, flags uint8, k uint8) bool {
		cfg := testConfig()
		cfg.CachelineAligned = flags&1 == 0
		cfg.ZeroBlockOpt = flags&2 == 0
		cfg.CompressedWriteback = flags&4 == 0
		cfg.TwoLevelReplacement = flags&8 == 0
		cfg.UseStageArea = flags&16 == 0
		if flags&32 != 0 {
			cfg.Mode = config.ModeFlat
		}
		if flags&64 != 0 {
			cfg.FullyAssociative = true
		}
		if flags&128 != 0 {
			cfg.BlockBytes = 512
		}
		cfg.CommitK = float64(k%6) - 1 // -1 (inf) .. 4
		if err := integrityErr(cfg, 3000, uint64(seed)); err != nil {
			t.Logf("flags=%08b k=%d seed=%d: %v", flags, k, seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrityRandomGeometryQuick sweeps the shape parameters (super-block
// grouping, associativity, stage size) under the same integrity property.
func TestIntegrityRandomGeometryQuick(t *testing.T) {
	f := func(seed uint16, super, assoc, stage uint8) bool {
		cfg := testConfig()
		cfg.SuperBlockBlocks = []int{1, 2, 4, 8, 16, 32}[int(super)%6]
		cfg.Assoc = []int{1, 2, 4, 8}[int(assoc)%4]
		cfg.StageBytes = []uint64{32 << 10, 64 << 10, 128 << 10, 256 << 10}[int(stage)%4]
		if err := integrityErr(cfg, 3000, uint64(seed)); err != nil {
			t.Logf("super=%d assoc=%d stage=%d seed=%d: %v",
				cfg.SuperBlockBlocks, cfg.Assoc, cfg.StageBytes, seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
