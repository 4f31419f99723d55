package hybrid

import (
	"testing"

	"baryon/internal/mem"
	"baryon/internal/sim"
)

// BenchmarkEngineSwap times one flat-mode block swap on the default
// two-tier engine (DDR4 over NVM): the victim is read from its fast frame
// and written to the slow location of the incoming block, which is
// fetched from there and filled into the frame. Each swap starts when the
// last one completes, so the devices never queue unboundedly. One op is
// one swap, so ns/op reads as ns per swap.
func BenchmarkEngineSwap(b *testing.B) {
	e := NewEngineTiers([]TierSpec{{Cfg: mem.DDR4Config()}, {Cfg: mem.NVMConfig()}}, sim.NewStats())
	const (
		fastFrames = 1 << 12 // 8 MiB of fast frames
		slowBlocks = 1 << 18 // 512 MiB of slow blocks
	)
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		frame := uint64(i%fastFrames) * BlockSize
		far := uint64(i%slowBlocks) * BlockSize
		out := e.WriteSlowBG(e.ReadFastBG(now, frame, BlockSize), far, BlockSize)
		in := e.FillFast(e.FetchSlow(now, far, BlockSize), frame, BlockSize)
		now = max(out, in)
	}
}
