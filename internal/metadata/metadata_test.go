package metadata

import (
	"testing"
	"testing/quick"

	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

func TestStageTagRoundTrip(t *testing.T) {
	entry := StageTag{
		Valid:   true,
		Super:   0x1ABCD,
		LRU:     5,
		FIFO:    3,
		MissCnt: 0xBEEF,
	}
	entry.Slots[0] = Range{Valid: true, CF: 1, Dirty: true, BlkOff: 7, SubOff: 5}
	entry.Slots[1] = Range{Valid: true, CF: 2, BlkOff: 3, SubOff: 6}
	entry.Slots[2] = Range{Valid: true, CF: 4, Dirty: true, BlkOff: 1, SubOff: 4}
	entry.Slots[3] = Range{Valid: true, CF: 4, Zero: true, BlkOff: 2}
	got := DecodeStageTag(entry.Encode())
	if got.Super != entry.Super || got.LRU != entry.LRU || got.FIFO != entry.FIFO ||
		got.MissCnt != entry.MissCnt || !got.Valid {
		t.Fatalf("header mismatch: %+v vs %+v", got, entry)
	}
	for i := range entry.Slots {
		if got.Slots[i] != entry.Slots[i] {
			t.Fatalf("slot %d: %+v vs %+v", i, got.Slots[i], entry.Slots[i])
		}
	}
}

func TestStageTagRoundTripQuick(t *testing.T) {
	f := func(super uint32, lru, fifo uint8, miss uint16, cfSel, dirty, blk, sub [8]uint8) bool {
		entry := StageTag{Valid: true, Super: hybrid.SuperBlockID(super & 0x1FFFFF),
			LRU: lru & 7, FIFO: fifo & 7, MissCnt: miss}
		for i := 0; i < 8; i++ {
			switch cfSel[i] % 5 {
			case 0: // empty
			case 1:
				entry.Slots[i] = Range{Valid: true, CF: 1, Dirty: dirty[i]&1 != 0,
					BlkOff: blk[i] & 7, SubOff: sub[i] & 7}
			case 2:
				entry.Slots[i] = Range{Valid: true, CF: 2, Dirty: dirty[i]&1 != 0,
					BlkOff: blk[i] & 7, SubOff: sub[i] & 3 * 2}
			case 3:
				entry.Slots[i] = Range{Valid: true, CF: 4, Dirty: dirty[i]&1 != 0,
					BlkOff: blk[i] & 7, SubOff: sub[i] & 1 * 4}
			case 4:
				entry.Slots[i] = Range{Valid: true, CF: 4, Zero: true, BlkOff: blk[i] & 7}
			}
		}
		got := DecodeStageTag(entry.Encode())
		return got == entry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStageTagInvalidEntry(t *testing.T) {
	var entry StageTag
	got := DecodeStageTag(entry.Encode())
	if got.Valid {
		t.Fatal("zero entry decoded as valid")
	}
}

func TestRemapEntryRoundTripQuick(t *testing.T) {
	f := func(remap, ptr, cf2, cf4 uint8, z bool) bool {
		e := RemapEntry{Remap: remap, Pointer: uint32(ptr & 3)}
		if z {
			e.Z = true
		} else {
			e.CF2 = cf2 & 0xF
			e.CF4 = cf4 & 0x3
			if e.CF2 == 0xF && e.CF4 == 0x3 {
				e.CF4 = 0 // the all-ones combination is reserved for Z
			}
		}
		return DecodeRemapEntry(e.Encode()) == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotsUsed(t *testing.T) {
	// A0, A2, A4-A7 (CF4): remap bits 10101111 reading sub 0 as LSB =
	// subs {0,2,4,5,6,7}; CF4 on quad 1. Slots = 6 - 0 - 3 = 3.
	e := RemapEntry{Remap: 0b11110101, CF4: 0b10}
	if got := e.SlotsUsed(); got != 3 {
		t.Fatalf("SlotsUsed=%d, want 3", got)
	}
	z := RemapEntry{Remap: 0xFF, Z: true}
	if got := z.SlotsUsed(); got != 0 {
		t.Fatalf("Z block SlotsUsed=%d, want 0", got)
	}
}

// TestSlotPositionPaperExample reproduces the B3 lookup example from
// Section III-C: A0, A2, A4-A7 and B1 each take one sub-block slot before
// B3, so B3 is in the 5th slot (index 4... the paper counts "the 5th
// sub-block of Z" with A taking 3 slots (A0, A2, A4-A7 compressed) plus B1,
// then B3).
func TestSlotPositionPaperExample(t *testing.T) {
	entries := make([]RemapEntry, 8)
	// Block A (offset 0): subs 0,2,4,5,6,7 in fast memory; 4-7 at CF4.
	entries[0] = RemapEntry{Remap: 0b11110101, CF4: 0b10, Pointer: 2}
	// Block B (offset 1): subs 1 and 3, uncompressed.
	entries[1] = RemapEntry{Remap: 0b00001010, Pointer: 2}
	// A uses slots 0..2 (A0, A2, A4-A7); B1 takes slot 3; B3 takes slot 4.
	for _, tc := range []struct{ blk, sub, want int }{
		{1, 3, 4}, // B3
		{1, 1, 3}, // B1
		{0, 4, 2}, // A4, the start of A's CF-4 range
		{0, 6, 2}, // A6 lives in the same slot as A4
	} {
		if got := SlotPosition(entries, tc.blk, tc.sub); got != tc.want {
			t.Errorf("SlotPosition(blk %d, sub %d) = %d, want %d", tc.blk, tc.sub, got, tc.want)
		}
	}
	if got := SlotsAt(entries, 2); got != 5 {
		t.Errorf("SlotsAt(way 2) = %d, want 5", got)
	}
}

// randomEntry draws an entry of well-formed aligned ranges (Rule 2) in way
// ptr, or an empty or Z entry.
func randomEntry(rng *sim.RNG, ptr uint32) RemapEntry {
	switch {
	case rng.Bool(0.3):
		return RemapEntry{}
	case rng.Bool(0.1):
		return RemapEntry{Z: true}
	}
	e := RemapEntry{Pointer: ptr}
	for q := 0; q < 2; q++ { // quad granularity decisions
		switch rng.Intn(4) {
		case 0: // CF4 quad
			e.Remap |= 0xF << (4 * q)
			e.CF4 |= 1 << q
		case 1: // two CF2 pairs (maybe)
			for p := 0; p < 2; p++ {
				if rng.Bool(0.5) {
					e.Remap |= 0x3 << (4*q + 2*p)
					e.CF2 |= 1 << (2*q + p)
				}
			}
		case 2: // scattered CF1 subs
			for s := 0; s < 4; s++ {
				if rng.Bool(0.4) {
					e.Remap |= 1 << (4*q + s)
				}
			}
		}
	}
	return e
}

// TestSlotPositionPrefixSum cross-checks the prefix-sum decode against a
// brute-force walk of the sorted layout for randomized entries, over every
// super-block length Fig. 13(b) sweeps and over pointers wider than the
// hardware's two bits (Baryon-FA's single set has 7,680 ways at the scaled
// configuration). The entries of one super-block mix two pointers, as when
// its data spans two frames; the wide pair agrees in its low eight bits, so
// a decode that truncates the pointer mixes the two frames up.
func TestSlotPositionPrefixSum(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, n := range []int{1, 2, 8, 32} {
		for _, ptrs := range [][2]uint32{{0, 3}, {259, 7427}} {
			for iter := 0; iter < 500; iter++ {
				entries := make([]RemapEntry, n)
				for b := range entries {
					entries[b] = randomEntry(rng, ptrs[rng.Intn(2)])
				}
				// Brute force: per pointer, walk blocks in order and each
				// block's sub-blocks in order, counting one slot per range.
				type key struct{ blk, sub int }
				want := make(map[key]int)
				for _, ptr := range ptrs {
					slot := 0
					for b, e := range entries {
						if e.Z || e.Pointer != ptr {
							continue
						}
						for s := 0; s < 8; {
							if e.Remap&(1<<s) == 0 {
								s++
								continue
							}
							start, cf := e.RangeOf(s)
							for i := start; i < start+cf; i++ {
								want[key{b, i}] = slot
							}
							slot++
							s = start + cf
						}
					}
					if got := SlotsAt(entries, ptr); got != slot {
						t.Fatalf("n=%d iter %d: SlotsAt(%d) = %d, want %d (entries %+v)", n, iter, ptr, got, slot, entries)
					}
				}
				for k, wantSlot := range want {
					if got := SlotPosition(entries, k.blk, k.sub); got != wantSlot {
						t.Fatalf("n=%d iter %d: block %d sub %d: slot %d, want %d (entries %+v)",
							n, iter, k.blk, k.sub, got, wantSlot, entries)
					}
				}
			}
		}
	}
}

func TestRangeCovers(t *testing.T) {
	r := Range{Valid: true, CF: 4, BlkOff: 2, SubOff: 4}
	for s := 0; s < 8; s++ {
		want := s >= 4
		if got := r.Covers(2, s); got != want {
			t.Errorf("Covers(2,%d)=%v, want %v", s, got, want)
		}
	}
	if r.Covers(3, 5) {
		t.Error("range covers wrong block")
	}
}
