package config

import "testing"

func TestScaledRatiosMatchPaper(t *testing.T) {
	s := Scaled()
	p := PaperScale()
	// The fast:slow and stage:fast ratios must match Table I.
	if p.SlowBytes/p.FastBytes != 8 {
		t.Fatalf("paper fast:slow ratio %d, want 1:8", p.SlowBytes/p.FastBytes)
	}
	if s.SlowBytes/s.FastBytes != 8 {
		t.Fatalf("scaled fast:slow ratio %d, want 1:8", s.SlowBytes/s.FastBytes)
	}
	if p.FastBytes/p.StageBytes != 64 {
		t.Fatalf("paper fast:stage ratio %d, want 64", p.FastBytes/p.StageBytes)
	}
}

func TestPaperScaleBudgets(t *testing.T) {
	p := PaperScale()
	if got := p.StageTagArrayBytes(); got != 448*1024 {
		t.Fatalf("stage tag array %d, want 448 kB (Section III-B)", got)
	}
	if got := p.StageSets(); got != 8192 {
		t.Fatalf("stage sets %d, want 8192 (Table I)", got)
	}
	if got := p.RemapTableBytes(); got != 32*1024*1024 {
		t.Fatalf("remap table %d, want 32 MB (2 B x 16M blocks)", got)
	}
}

func TestRemapCacheStorageBudget(t *testing.T) {
	// Table I: 32 kB remap cache (256 sets x 8 ways x 16 B of entries),
	// plus tag overhead.
	p := PaperScale()
	if got := p.RemapCacheBytes(); got < 32*1024 || got > 42*1024 {
		t.Fatalf("remap cache %d B, want ~32-40 kB", got)
	}
}

func TestGeometryCounts(t *testing.T) {
	s := Scaled()
	if s.FastBlocks() != (s.FastBytes-s.StageBytes)/2048 {
		t.Fatal("FastBlocks wrong")
	}
	if s.Sets()*uint64(s.WaysPerSet()) != s.FastBlocks()/uint64(s.Assoc)*uint64(s.Assoc) {
		t.Fatal("sets x ways != frames")
	}
	fa := s
	fa.FullyAssociative = true
	if fa.Sets() != 1 {
		t.Fatal("FA sets != 1")
	}
	if uint64(fa.WaysPerSet()) != fa.FastBlocks() {
		t.Fatal("FA ways != all frames")
	}
}

func TestFlatModeOSBlocks(t *testing.T) {
	s := Scaled()
	cacheBlocks := s.OSBlocks()
	s.Mode = ModeFlat
	flatBlocks := s.OSBlocks()
	if flatBlocks <= cacheBlocks {
		t.Fatal("flat mode does not expose the fast capacity")
	}
	if flatBlocks != cacheBlocks+s.FastBlocks() {
		t.Fatalf("flat OS blocks %d, want cache (%d) + fast (%d)", flatBlocks, cacheBlocks, s.FastBlocks())
	}
}

func Test64BVariantGeometry(t *testing.T) {
	s := Scaled()
	s.BlockBytes = 512
	if s.FastBlocks() != (s.FastBytes-s.StageBytes)/512 {
		t.Fatal("64B-variant FastBlocks wrong")
	}
	if s.StageBlocks() != s.StageBytes/512 {
		t.Fatal("64B-variant StageBlocks wrong")
	}
}

func TestModeString(t *testing.T) {
	if ModeCache.String() != "cache" || ModeFlat.String() != "flat" {
		t.Fatal("mode strings wrong")
	}
	for _, m := range []Mode{ModeCache, ModeFlat} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m, got, err)
		}
	}
	for _, s := range []string{"", "Flat", "bogus"} {
		if _, err := ParseMode(s); err == nil {
			t.Fatalf("ParseMode(%q) accepted", s)
		}
	}
}
