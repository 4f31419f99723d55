package hybrid

import (
	"testing"

	"baryon/internal/datagen"
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

// BenchmarkStoreWriteLine times the first write of a line into a block on
// a store filled by the uniform datagen mix, as an LLC writeback stores it.
// One op is one block's first write; a fresh store is started after every
// 4 MB of blocks. write-only never reads the block back, as Simple, Unison
// and OSPaging do not; write-then-read reads its sub-block next, which runs
// the block's fill, as a Baryon stage insert does.
func BenchmarkStoreWriteLine(b *testing.B) {
	fill := datagen.Filler(datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}})
	const blocks = 2048
	for _, bc := range []struct {
		name string
		read bool
	}{{"write-only", false}, {"write-then-read", true}} {
		b.Run(bc.name, func(b *testing.B) {
			line := make([]byte, CachelineSize)
			var s *Store
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%blocks == 0 {
					s = NewStore(func(blk BlockID, dst *[BlockSize]byte) { fill(uint64(blk), dst) })
				}
				addr := uint64(i%blocks)*BlockSize + uint64(i/blocks%(BlockSize/CachelineSize))*CachelineSize
				s.WriteLine(addr, line)
				if bc.read {
					s.Bytes(addr&^(SubBlockSize-1), SubBlockSize)
				}
			}
		})
	}
}
