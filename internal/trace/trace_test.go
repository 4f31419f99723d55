package trace

import (
	"testing"

	"baryon/internal/hybrid"
)

const testFastBlocks = 4096

func TestAllWorkloadsWellFormed(t *testing.T) {
	for _, w := range All() {
		if w.Name == "" || w.FootprintFactor <= 0 || w.GapMean == 0 {
			t.Fatalf("malformed workload %+v", w)
		}
		if w.BlockUtil <= 0 || w.BlockUtil > 1 {
			t.Fatalf("%s: BlockUtil %f out of range", w.Name, w.BlockUtil)
		}
		if w.WriteRatio < 0 || w.WriteRatio > 1 {
			t.Fatalf("%s: WriteRatio %f out of range", w.Name, w.WriteRatio)
		}
	}
	if len(All()) != 16 {
		t.Fatalf("suite has %d workloads, want 16 (paper's count)", len(All()))
	}
}

func TestStreamsStayInFootprint(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			limit := w.Blocks(testFastBlocks) * hybrid.BlockSize
			for core := 0; core < 16; core += 5 {
				s := w.NewStream(core, testFastBlocks, 1)
				for i := 0; i < 3000; i++ {
					a := s.Next()
					if a.Addr >= limit {
						t.Fatalf("core %d access %#x beyond footprint %#x", core, a.Addr, limit)
					}
					if a.Addr%hybrid.CachelineSize != 0 {
						t.Fatalf("unaligned access %#x", a.Addr)
					}
				}
			}
		})
	}
}

func TestWriteRatioApproximatelyHonoured(t *testing.T) {
	for _, name := range []string{"519.lbm_r", "YCSB-B"} {
		w, _ := ByName(name)
		s := w.NewStream(0, testFastBlocks, 1)
		writes := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if s.Next().Write {
				writes++
			}
		}
		got := float64(writes) / n
		if got < w.WriteRatio*0.4 || got > w.WriteRatio*2.0+0.02 {
			t.Fatalf("%s: write fraction %.3f vs configured %.3f", name, got, w.WriteRatio)
		}
	}
}

func TestBlockUtilRespected(t *testing.T) {
	// A workload with BlockUtil 0.25 must touch at most 2 of 8 sub-blocks
	// in any single block.
	w, _ := ByName("557.xz_r")
	s := w.NewStream(0, testFastBlocks, 1)
	subs := map[uint64]map[int]bool{}
	for i := 0; i < 50000; i++ {
		a := s.Next()
		b := a.Addr / hybrid.BlockSize
		if subs[b] == nil {
			subs[b] = map[int]bool{}
		}
		subs[b][int(a.Addr%hybrid.BlockSize/hybrid.SubBlockSize)] = true
	}
	maxSubs := 0
	for _, set := range subs {
		if len(set) > maxSubs {
			maxSubs = len(set)
		}
	}
	if maxSubs > 2 {
		t.Fatalf("xz (util 0.25) touched %d sub-blocks in one block", maxSubs)
	}
}

func TestStreamPatternIsSequentialish(t *testing.T) {
	w, _ := ByName("549.fotonik3d_r")
	s := w.NewStream(0, testFastBlocks, 1)
	var prev uint64
	increasing := 0
	const n = 5000
	for i := 0; i < n; i++ {
		a := s.Next()
		if i > 0 && a.Addr > prev {
			increasing++
		}
		prev = a.Addr
	}
	if float64(increasing)/n < 0.9 {
		t.Fatalf("stream pattern only %.2f increasing", float64(increasing)/n)
	}
}

func TestZipfPatternSkewed(t *testing.T) {
	w, _ := ByName("505.mcf_r")
	s := w.NewStream(0, testFastBlocks, 1)
	counts := map[uint64]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[s.Next().Addr/hybrid.BlockSize]++
	}
	// The hottest block should be visited far more than the mean.
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	mean := float64(total) / float64(len(counts))
	if float64(max) < 5*mean {
		t.Fatalf("zipf skew too weak: max %d vs mean %.1f", max, mean)
	}
}

func TestKVRecordGranularity(t *testing.T) {
	w, _ := ByName("YCSB-A")
	s := w.NewStream(0, testFastBlocks, 1)
	// KV accesses walk records: consecutive accesses within a record are
	// 64 B apart.
	adjacent := 0
	var prev uint64
	const n = 10000
	for i := 0; i < n; i++ {
		a := s.Next()
		if i > 0 && a.Addr == prev+64 {
			adjacent++
		}
		prev = a.Addr
	}
	if float64(adjacent)/n < 0.5 {
		t.Fatalf("KV record scans missing: only %.2f adjacent", float64(adjacent)/n)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("505.mcf_r"); !ok {
		t.Fatal("known workload missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown workload found")
	}
}

func TestRepresentativeSubset(t *testing.T) {
	repr := Representative()
	if len(repr) == 0 {
		t.Fatal("empty representative set")
	}
	for _, w := range repr {
		if _, ok := ByName(w.Name); !ok {
			t.Fatalf("representative %s not in suite", w.Name)
		}
	}
}

func TestGapBounds(t *testing.T) {
	for _, w := range All() {
		s := w.NewStream(0, testFastBlocks, 1)
		for i := 0; i < 1000; i++ {
			g := s.Next().Gap
			if g < w.GapMean/2 || g > w.GapMean/2+w.GapMean {
				t.Fatalf("%s: gap %d outside [%d, %d]", w.Name, g, w.GapMean/2, w.GapMean/2+w.GapMean)
			}
		}
	}
}
