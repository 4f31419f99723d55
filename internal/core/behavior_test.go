package core

import (
	"bytes"
	"testing"

	"baryon/internal/config"
	"baryon/internal/datagen"
	"baryon/internal/hybrid"
	"baryon/internal/metadata"
	"baryon/internal/sim"
)

// stormController drives mixed traffic and returns the controller for
// white-box inspection.
func stormController(t *testing.T, cfg config.Config, accesses int, seed uint64) *Controller {
	t.Helper()
	mix := datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}
	store := hybrid.NewStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		datagen.Filler(mix)(uint64(b), dst)
	})
	c := New(cfg, store, sim.NewStats())
	rng := sim.NewRNG(seed)
	footprint := cfg.OSBlocks() * cfg.BlockBytes / 4
	now := uint64(0)
	for i := 0; i < accesses; i++ {
		addr := rng.Uint64n(footprint) &^ 63
		c.AddInstructions(8)
		if rng.Bool(0.3) {
			data := make([]byte, 64)
			for j := range data {
				data[j] = byte(rng.Uint64() >> 32)
			}
			c.Access(now, addr, true, data)
		} else {
			c.Access(now, addr, false, nil)
		}
		now += 40
	}
	return c
}

// TestRemapPositionMatchesMetadataDecode cross-checks the simulator's
// committed layout against the paper's architectural position calculation:
// building the 2-byte remap entries for a super-block and running the
// prefix-sum decode (Fig. 5(e)) must yield exactly the slot index where the
// simulator stored each range.
func TestRemapPositionMatchesMetadataDecode(t *testing.T) {
	cfg := testConfig()
	c := stormController(t, cfg, 25000, 77)

	checked := 0
	for si := 0; si < int(c.geom.sets); si++ {
		for wi := 0; wi < c.geom.ways; wi++ {
			m, f := c.fastDir.Way(si, wi)
			if !m.Valid {
				continue
			}
			// Build the architectural entries of this frame's super-block,
			// restricted to blocks stored in this way.
			var se metadata.SuperEntries
			for off := 0; off < int(c.geom.superBlocks); off++ {
				b := c.blockID(hybrid.SuperBlockID(m.Key), uint8(off))
				if b >= uint64(len(c.remap)) {
					continue
				}
				ri := &c.remap[b]
				if ri.way != int32(wi) || ri.z {
					continue
				}
				se[off] = metadata.RemapEntry{
					Remap: ri.remap, CF2: ri.cf2, CF4: ri.cf4,
					Pointer: uint8(wi) & 3,
				}
			}
			for idx := range f.occ {
				rg := &f.occ[idx]
				got := se.SlotPosition(int(rg.blkOff), int(rg.subOff))
				if got != idx {
					t.Fatalf("set %d way %d: range (blk %d, sub %d) at slot %d but decode says %d",
						si, wi, rg.blkOff, rg.subOff, idx, got)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d ranges checked; storm too small", checked)
	}
}

// slotEncodable reports whether r is a range the stage tag's 8-bit slot
// format holds exactly (metadata's encode/decode round-trip tests cover
// every such range): an empty slot, a clean all-zero range at CF 4, or a
// CF 1, 2 or 4 range aligned to its CF, all within an eight-block
// super-block.
func slotEncodable(r metadata.Range) bool {
	switch {
	case !r.Valid:
		return r == metadata.Range{}
	case r.BlkOff > 7 || r.SubOff > 7:
		return false
	case r.Zero:
		return r.CF == 4 && r.SubOff == 0 && !r.Dirty
	}
	return (r.CF == 1 || r.CF == 2 || r.CF == 4) && r.SubOff%r.CF == 0
}

// TestStageTagEncodeMatchesState checks that live stage tag entries fit the
// 14-byte hardware encoding: every slot is a range the slot format holds
// and the FIFO pointer fits its 3 bits.
func TestStageTagEncodeMatchesState(t *testing.T) {
	cfg := testConfig()
	c := stormController(t, cfg, 15000, 78)
	live := 0
	for si := 0; si < int(c.geom.stageSets); si++ {
		for wi := 0; wi < c.geom.stageWays; wi++ {
			tag := &c.stageDir.Payload(si, wi).tag
			if !tag.Valid {
				continue
			}
			for _, r := range tag.Slots {
				if !slotEncodable(r) {
					t.Fatalf("stage tag slot %+v does not fit the 8-bit slot format (tag %+v)", r, tag)
				}
			}
			if tag.FIFO > 7 {
				t.Fatalf("stage tag FIFO pointer %d does not fit 3 bits", tag.FIFO)
			}
			live++
		}
	}
	if live == 0 {
		t.Fatal("no live stage entries")
	}
}

func TestCommitAllNeverEvicts(t *testing.T) {
	cfg := testConfig()
	cfg.CommitAll = true
	c := stormController(t, cfg, 15000, 79)
	if c.stats.Get("baryon.evictsToSlow") != 0 {
		t.Fatal("commit-all still evicted stage frames to slow memory")
	}
	if c.stats.Get("baryon.commits") == 0 {
		t.Fatal("no commits at all")
	}
}

// TestWriteOverflowEvictsWholeBlock builds the case-2 overflow scenario
// directly: a compressible range is committed, then a write makes it
// incompressible; the whole block must fall back to slow memory and reads
// must still return the new data (Rule 4 consequence, Section III-D).
func TestWriteOverflowEvictsWholeBlock(t *testing.T) {
	cfg := testConfig()
	store := hybrid.NewStore(nil) // all-zero: maximally compressible
	cfg.ZeroBlockOpt = false      // force real CF-4 ranges, not Z entries
	c := New(cfg, store, sim.NewStats())

	// Touch a block until staged and committed: read it, then storm other
	// supers in the same stage set to force the commit.
	target := uint64(3 * cfg.BlockBytes)
	now := uint64(0)
	c.Access(now, target, false, nil)
	ssi := c.stageSetIdx(c.superOf(3))
	for i := uint64(1); i < 40; i++ {
		super := uint64(c.geom.stageSets)*i + uint64(ssi)
		b := super * c.geom.superBlocks
		if b >= c.geom.osBlocks {
			break
		}
		now += 100
		c.Access(now, b*cfg.BlockBytes, false, nil)
	}
	if c.remap[3].remap == 0 {
		t.Skip("block was not committed by the storm; scenario not reachable at this size")
	}
	before := c.stats.Get("baryon.fast.writeOverflows")

	// Write incompressible data into the committed compressed range.
	rng := sim.NewRNG(5)
	data := make([]byte, 64)
	for j := range data {
		data[j] = byte(rng.Uint64() >> 32)
	}
	now += 100
	c.Access(now, target, true, data)

	if got := c.stats.Get("baryon.fast.writeOverflows"); got != before+1 {
		t.Fatalf("write overflows %d, want %d", got, before+1)
	}
	if c.remap[3].valid() {
		t.Fatal("overflowed block still committed")
	}
	if got := c.PeekLine(target); !bytes.Equal(got, data) {
		t.Fatal("overflow lost the written data")
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated after overflow: %s", msg)
	}
}

// TestCompressedWriteback verifies the Section III-F optimisation: dirty
// compressible ranges leave hints behind, and refetching the block uses
// them (compressed transfers and hint-driven prefetch).
func TestCompressedWriteback(t *testing.T) {
	cfg := testConfig()
	c := stormController(t, cfg, 25000, 80)
	if c.stats.Get("baryon.compressedWritebacks") == 0 {
		t.Fatal("no compressed writebacks despite compressible traffic")
	}
	hints := 0
	for b := range c.cf2Hint {
		if c.cf2Hint[b] != 0 || c.cf4Hint[b] != 0 {
			hints++
		}
	}
	if hints == 0 {
		t.Fatal("no CF hints recorded")
	}
}

func TestNoCompressedWritebackNoHints(t *testing.T) {
	cfg := testConfig()
	cfg.CompressedWriteback = false
	c := stormController(t, cfg, 15000, 81)
	if c.stats.Get("baryon.compressedWritebacks") != 0 {
		t.Fatal("compressed writebacks despite the option being off")
	}
	for b := range c.cf2Hint {
		if c.cf2Hint[b] != 0 || c.cf4Hint[b] != 0 {
			t.Fatal("hints recorded despite the option being off")
		}
	}
}

// TestStageBreakdownImproves checks the Fig. 3 property on a single
// controller: committed blocks miss less than staged ones. The property is
// a locality property, so the traffic must revisit blocks with consistent
// footprints (uniform-random traffic has no predictable footprint and would
// not — and should not — show it).
func TestStageBreakdownImproves(t *testing.T) {
	cfg := testConfig()
	mix := datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}
	store := hybrid.NewStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		datagen.Filler(mix)(uint64(b), dst)
	})
	c := New(cfg, store, sim.NewStats())
	rng := sim.NewRNG(82)
	hotBlocks := cfg.OSBlocks() / 16
	now := uint64(0)
	for i := 0; i < 8000; i++ {
		// Visit a hot block: touch the same 3 sub-blocks it always uses.
		b := rng.Uint64n(hotBlocks)
		for s := uint64(0); s < 3; s++ {
			for l := uint64(0); l < 2; l++ {
				c.AddInstructions(8)
				c.Access(now, b*cfg.BlockBytes+s*256+l*64, false, nil)
				now += 40
			}
		}
	}
	bd := Breakdown(c.stats)
	if bd.CHits == 0 {
		t.Fatal("no committed activity")
	}
	if bd.CReadMisses+bd.CWriteOverflows >= bd.SReadMisses+bd.SWriteOverflows {
		t.Fatalf("committed blocks (%.2f) not more stable than staged (%.2f)",
			bd.CReadMisses+bd.CWriteOverflows, bd.SReadMisses+bd.SWriteOverflows)
	}
}

// TestTwoLevelReplacementUsesMultipleFrames verifies that the block-level
// path actually spreads a super-block's data across frames (Fig. 8).
func TestTwoLevelReplacementUsesMultipleFrames(t *testing.T) {
	cfg := testConfig()
	c := stormController(t, cfg, 25000, 83)
	if c.stats.Get("baryon.blockReplacements") == 0 {
		t.Fatal("no block-level replacements")
	}
	cfg2 := testConfig()
	cfg2.TwoLevelReplacement = false
	c2 := stormController(t, cfg2, 25000, 83)
	if c2.stats.Get("baryon.subReplacements") <= c.stats.Get("baryon.subReplacements") {
		t.Fatal("disabling block-level replacement did not increase sub-block replacements")
	}
}

func TestFlatModeInitialResidency(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = config.ModeFlat
	store := hybrid.NewStore(nil)
	c := New(cfg, store, sim.NewStats())
	// Every flat-area frame starts holding its native block, fully present.
	res := c.Access(0, 0, false, nil) // OS block 0 is fast-native
	if !res.ServedByFast {
		t.Fatal("native block not resident at start")
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatalf("initial flat state invalid: %s", msg)
	}
}

func TestFlatSwapsHappen(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = config.ModeFlat
	c := stormController(t, cfg, 30000, 84)
	spread := c.stats.Get("baryon.swap.spread")
	three := c.stats.Get("baryon.swap.threeWay")
	if spread == 0 {
		t.Fatal("no spread swaps in flat mode")
	}
	t.Logf("spread=%d threeWay=%d aborts=%d", spread, three, c.stats.Get("baryon.commitAborts"))
}

// TestMultiFrameSupers checks that one super-block can occupy several fast
// frames when its hot data exceed one frame (the paper observes 1.12% of
// cases; the storm makes them common enough to observe).
func TestMultiFrameSupers(t *testing.T) {
	cfg := testConfig()
	c := stormController(t, cfg, 40000, 85)
	if c.stats.Get("baryon.multiFrameSupers") == 0 {
		t.Skip("storm produced no multi-frame supers at this size")
	}
}
