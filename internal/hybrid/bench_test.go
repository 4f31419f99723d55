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

// BenchmarkStoreWriteVersion times the first write of a line into a block
// on a store filled by the uniform datagen mix, as an LLC writeback stores
// it. One op is one block's first write; a fresh store is started after
// every 4 MB of blocks. write-only never reads the block back, as Simple,
// Unison and OSPaging do not, so it carves only the block's record;
// write-then-read reads its sub-block next, which carves and fills the
// block's bytes and makes the line, as a Baryon stage insert does.
func BenchmarkStoreWriteVersion(b *testing.B) {
	mix := datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}
	fill := datagen.Filler(mix)
	line := func(blk BlockID, i int, v uint32, dst *[CachelineSize]byte) {
		datagen.FillLine(dst[:], uint64(blk), i/LinesPerSub, i%LinesPerSub, v, mix.ClassFor(uint64(blk)))
	}
	const blocks = 2048
	for _, bc := range []struct {
		name string
		read bool
	}{{"write-only", false}, {"write-then-read", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var s *Store
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%blocks == 0 {
					s = NewStore(func(blk BlockID, dst *[BlockSize]byte) { fill(uint64(blk), dst) }, line)
				}
				addr := uint64(i%blocks)*BlockSize + uint64(i/blocks%(BlockSize/CachelineSize))*CachelineSize
				s.WriteVersion(addr, 1)
				if bc.read {
					s.Bytes(addr&^(SubBlockSize-1), SubBlockSize)
				}
			}
		})
	}
}
