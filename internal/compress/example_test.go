package compress_test

import (
	"encoding/binary"
	"fmt"

	"baryon/internal/compress"
)

// ExampleCompressor_RangeFits shows Baryon's fit rule: a range of four
// sub-blocks holding low-entropy data compresses into one 256 B slot
// (CF = 4), even under the cacheline-aligned restriction.
func ExampleCompressor_RangeFits() {
	c := compress.New(true)     // cacheline-aligned mode
	data := make([]byte, 4*256) // four 256 B sub-blocks
	for off := 0; off < len(data); off += 4 {
		binary.LittleEndian.PutUint32(data[off:], uint32(off%8))
	}
	fmt.Println("fits at CF 4:", c.RangeFits(data, 4))
	// Output: fits at CF 4: true
}

// ExampleBDI shows a BDI round trip on a pointer-like cacheline.
func ExampleBDI() {
	var bdi compress.BDI
	line := make([]byte, 64)
	base := uint64(0x7f42_0000_1000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], base+uint64(i)*16)
	}
	comp := bdi.Compress(line)
	back := bdi.Decompress(comp, 64)
	fmt.Println("compressed to", len(comp), "bytes, round trip ok:",
		string(back[0]) == string(line[0]))
	// Output: compressed to 18 bytes, round trip ok: true
}
