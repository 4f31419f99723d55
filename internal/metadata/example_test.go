package metadata_test

import (
	"fmt"

	"baryon/internal/metadata"
)

// ExampleSlotPosition reproduces the worked example of Section III-C /
// Fig. 5(e): block A has sub-blocks A0, A2 and the CF-4 range A4-A7 in
// fast memory, block B has B1 and B3; looking up B3 walks the super-block's
// remap entries and lands in the 5th slot (index 4).
func ExampleSlotPosition() {
	entries := make([]metadata.RemapEntry, 8)                                  // one super-block
	entries[0] = metadata.RemapEntry{Remap: 0b11110101, CF4: 0b10, Pointer: 2} // block A
	entries[1] = metadata.RemapEntry{Remap: 0b00001010, Pointer: 2}            // block B
	fmt.Println("B3 is in slot", metadata.SlotPosition(entries, 1, 3))
	// Output: B3 is in slot 4
}

// ExampleStageTag_Encode shows the 14-byte stage tag entry round trip.
func ExampleStageTag_Encode() {
	entry := metadata.StageTag{Valid: true, Super: 0x1234, MissCnt: 7}
	entry.Slots[0] = metadata.Range{Valid: true, CF: 2, BlkOff: 3, SubOff: 6}
	packed := entry.Encode()
	back := metadata.DecodeStageTag(packed)
	fmt.Println(len(packed), "bytes, CF", back.Slots[0].CF, "at sub", back.Slots[0].SubOff)
	// Output: 14 bytes, CF 2 at sub 6
}
