package core

import (
	"strings"
	"testing"

	"baryon/internal/metadata"
)

// TestCheckInvariantsCatchesCorruption storms a controller, then breaks one
// remap entry (or its dirty bits) at a time, once per rule CheckInvariants
// states, and checks that each break is reported and that the restored
// state is clean again.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	// Over an all-zero store, blocks commit as CF-4 ranges and written lines
	// of random bytes as CF-1 ranges beside them.
	cfg := testConfig()
	cfg.ZeroBlockOpt = false
	c := stormStore(t, cfg, nil, 25000, 90)
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatalf("storm left a violation before any corruption: %s", msg)
	}
	committed := func(b uint64, e metadata.RemapEntry) bool { return e.Remap != 0 }
	// otherWay returns a way of b's set that is invalid or keyed by another
	// super-block, or -1.
	otherWay := func(b uint64) int {
		for w, m := range c.fastDir.SetMeta(c.setIdx(c.superOf(b))) {
			if !m.Valid || m.Key != uint64(c.superOf(b)) {
				return w
			}
		}
		return -1
	}

	for _, tc := range []struct {
		name, want string
		pick       func(b uint64, e metadata.RemapEntry) bool
		corrupt    func(b uint64, e *metadata.RemapEntry, dirty *uint8)
	}{
		{"CF2 over a hole", "CF2 bit over sub-blocks that are not remapped",
			func(_ uint64, e metadata.RemapEntry) bool { return e.Remap != 0 && e.Remap&0x3 != 0x3 },
			func(_ uint64, e *metadata.RemapEntry, _ *uint8) { e.CF2 |= 1 }},
		{"CF2 inside a CF4 range", "sub-block under both a CF2 and a CF4 bit",
			func(_ uint64, e metadata.RemapEntry) bool { return e.CF4 != 0 },
			func(_ uint64, e *metadata.RemapEntry, _ *uint8) {
				q := 0 // the first quad at CF 4
				if e.CF4&1 == 0 {
					q = 1
				}
				e.CF2 |= 1 << (2 * q)
			}},
		{"Z with remap bits", "Z entry with remap bits",
			committed,
			func(_ uint64, e *metadata.RemapEntry, _ *uint8) { e.Z = true }},
		{"pointer to another super-block's way", "points at a frame of another super-block",
			func(b uint64, e metadata.RemapEntry) bool { return e.Remap != 0 && otherWay(b) >= 0 },
			func(b uint64, e *metadata.RemapEntry, _ *uint8) { e.Pointer = uint32(otherWay(b)) }},
		{"pointer past the set", "points past the set's ways",
			committed,
			func(_ uint64, e *metadata.RemapEntry, _ *uint8) { e.Pointer = uint32(c.geom.ways) }},
		{"frame over capacity", "frame holds more than 8 slots",
			func(b uint64, e metadata.RemapEntry) bool { // a frame shared with another block
				return e.Remap != 0 && c.frameSlots(c.setIdx(c.superOf(b)), int(e.Pointer)) > e.SlotsUsed()
			},
			func(_ uint64, e *metadata.RemapEntry, _ *uint8) { e.Remap, e.CF2, e.CF4 = 0xFF, 0, 0 }},
		{"dirty without remap", "dirty bit on a sub-block that is not remapped",
			func(_ uint64, e metadata.RemapEntry) bool { return !e.Valid() },
			func(_ uint64, _ *metadata.RemapEntry, d *uint8) { *d |= 1 }},
		{"dirty over half a range", "dirty bits cover part of a range",
			func(_ uint64, e metadata.RemapEntry) bool { return e.CF2&1 != 0 || e.CF4&1 != 0 },
			func(_ uint64, _ *metadata.RemapEntry, d *uint8) { *d = *d&^0x3 | 0x1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := -1
			for i, e := range c.remap {
				if tc.pick(uint64(i), e) {
					b = i
					break
				}
			}
			if b < 0 {
				t.Fatal("the storm left no block to corrupt")
			}
			savedE, savedD := c.remap[b], c.dirty[b]
			tc.corrupt(uint64(b), &c.remap[b], &c.dirty[b])
			got := c.CheckInvariants()
			c.remap[b], c.dirty[b] = savedE, savedD
			if !strings.Contains(got, tc.want) {
				t.Errorf("block %d corrupted: CheckInvariants = %q, want %q", b, got, tc.want)
			}
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("restored state reports %q", msg)
			}
		})
	}
}
