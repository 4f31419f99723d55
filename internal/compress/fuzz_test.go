package compress

import (
	"bytes"
	"testing"
)

// fuzzInput shapes raw fuzz bytes into a legal compressor input: truncated
// to a whole number of 8-byte words (every algorithm's strictest alignment)
// and capped at 2 kB (a Baryon block). Empty after truncation is skipped.
func fuzzInput(data []byte) []byte {
	if len(data) > 2048 {
		data = data[:2048]
	}
	return data[:len(data)/8*8]
}

// checkSizeAtMost asserts SizeAtMost(data, b) == (CompressedSize(data) <= b)
// for a budget b drawn from the raw fuzz bytes, spanning 0 to past
// len(data) so both verdicts occur.
func checkSizeAtMost(t *testing.T, raw, data []byte, size int, sizeAtMost func([]byte, int) bool) {
	t.Helper()
	budget := (int(raw[0]) | int(raw[len(raw)-1])<<8) % (len(data) + 9)
	if got, want := sizeAtMost(data, budget), size <= budget; got != want {
		t.Fatalf("SizeAtMost(%d)=%v but CompressedSize=%d", budget, got, size)
	}
}

// FuzzFPCRoundTrip checks Compress/Decompress inverse-ness and the
// CompressedSize and SizeAtMost contracts on arbitrary word-aligned input.
func FuzzFPCRoundTrip(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff, 0, 0, 0}, 16))
	f.Add([]byte("the quick brown fox jumps over the dogs!"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		data := fuzzInput(raw)
		if len(data) == 0 {
			t.Skip()
		}
		var c FPC
		comp := c.Compress(data)
		if got := c.CompressedSize(data); got != len(comp) {
			t.Fatalf("CompressedSize=%d but Compress produced %d bytes", got, len(comp))
		}
		checkSizeAtMost(t, raw, data, len(comp), c.SizeAtMost)
		back := c.Decompress(comp, len(data))
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", data, back)
		}
	})
}

// FuzzBDIRoundTrip does the same for BDI.
func FuzzBDIRoundTrip(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 8))
	f.Fuzz(func(t *testing.T, raw []byte) {
		data := fuzzInput(raw)
		if len(data) == 0 {
			t.Skip()
		}
		var c BDI
		comp := c.Compress(data)
		if got := c.CompressedSize(data); got != len(comp) {
			t.Fatalf("CompressedSize=%d but Compress produced %d bytes", got, len(comp))
		}
		checkSizeAtMost(t, raw, data, len(comp), c.SizeAtMost)
		back := c.Decompress(comp, len(data))
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", data, back)
		}
	})
}
