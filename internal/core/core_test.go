package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"baryon/internal/config"
	"baryon/internal/datagen"
	"baryon/internal/hybrid"
	"baryon/internal/metadata"
	"baryon/internal/sim"
)

// testConfig returns a tiny configuration that still exercises every
// structure: multiple sets, a small stage area, heavy conflict pressure.
func testConfig() config.Config {
	c := config.Scaled()
	c.FastBytes = 1 << 20    // 1 MB fast
	c.StageBytes = 128 << 10 // 64 stage frames, 16 sets
	c.SlowBytes = 8 << 20    // 8 MB slow
	c.AccessesPerCore = 0
	return c
}

// payloadStore returns a store over fill whose written lines hold bytes
// the test chooses, and the write that stores them: writeLine(addr, data)
// keeps a copy of data as the next version of the line at addr and writes
// that version, and the store's line function hands the copy back when a
// read makes the line. Only a line's latest version is kept, and making
// any other version panics.
func payloadStore(fill func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte)) (*hybrid.Store, func(addr uint64, data []byte)) {
	type payload struct {
		v    uint32
		data []byte
	}
	lines := make(map[uint64]payload)
	var v uint32
	store := hybrid.NewStore(fill, func(b hybrid.BlockID, line int, ver uint32, dst *[hybrid.CachelineSize]byte) {
		p := lines[uint64(b)*hybrid.BlockSize+uint64(line)*hybrid.CachelineSize]
		if p.v != ver {
			panic(fmt.Sprintf("store made version %d of a line whose latest version is %d", ver, p.v))
		}
		copy(dst[:], p.data)
	})
	return store, func(addr uint64, data []byte) {
		v++
		lines[hybrid.LineAddr(addr)] = payload{v, append([]byte(nil), data...)}
		store.WriteVersion(addr, v)
	}
}

// refModel is the functional reference: the latest value of every line.
type refModel struct {
	mix    datagen.Mix
	writes map[uint64][]byte
}

func newRef(mix datagen.Mix) *refModel {
	return &refModel{mix: mix, writes: make(map[uint64][]byte)}
}

func (r *refModel) line(addr uint64) []byte {
	if d, ok := r.writes[addr]; ok {
		return d
	}
	var blk [hybrid.BlockSize]byte
	sb := hybrid.BlockOf(addr)
	datagen.Filler(r.mix)(uint64(sb), &blk)
	off := addr % hybrid.BlockSize
	return blk[off : off+64]
}

func (r *refModel) write(addr uint64, data []byte) {
	r.writes[addr] = append([]byte(nil), data...)
}

// runIntegrity drives random traffic at the controller and verifies that
// every read and every prefetched line matches the reference in the store,
// that the store agrees for every touched line, and that the structural
// invariants hold.
func runIntegrity(t *testing.T, cfg config.Config, accesses int, seed uint64) *Controller {
	t.Helper()
	mix := datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}
	store, writeLine := payloadStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		datagen.Filler(mix)(uint64(b), dst)
	})
	stats := sim.NewStats()
	c := New(cfg, store, stats)
	ref := newRef(mix)
	rng := sim.NewRNG(seed)

	osBytes := cfg.OSBlocks() * cfg.BlockBytes
	footprint := osBytes / 4 // concentrate traffic to force evictions
	touched := make(map[uint64]bool)
	now := uint64(0)
	for i := 0; i < accesses; i++ {
		addr := (rng.Uint64n(footprint)) &^ 63
		write := rng.Bool(0.3)
		c.AddInstructions(10)
		if write {
			data := make([]byte, 64)
			for j := range data {
				data[j] = byte(rng.Uint64() >> 32)
			}
			// Keep some writes compressible so CF transitions both ways.
			if rng.Bool(0.5) {
				for j := range data {
					data[j] = 0
				}
				data[0] = byte(rng.Uint64() >> 32)
			}
			ref.write(addr, data)
			writeLine(addr, data)
			c.Access(now, addr, true, nil)
		} else {
			res := c.Access(now, addr, false, nil)
			if got := c.store.Line(addr); !bytes.Equal(got, ref.line(addr)) {
				t.Fatalf("access %d: read %x mismatch\n got %x\nwant %x", i, addr, got, ref.line(addr))
			}
			for _, p := range res.Prefetched {
				if p%hybrid.CachelineSize != 0 || p == addr || p/cfg.BlockBytes != addr/cfg.BlockBytes {
					t.Fatalf("access %d: prefetched %x is not another line of %x's block", i, p, addr)
				}
				if !bytes.Equal(c.store.Line(p), ref.line(p)) {
					t.Fatalf("access %d: prefetched line %x mismatch", i, p)
				}
			}
		}
		touched[addr] = true
		now += 50
		if i%2048 == 2047 {
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("access %d: invariant violated: %s", i, msg)
			}
		}
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatalf("final invariant violated: %s", msg)
	}
	for addr := range touched {
		if got := c.store.Line(addr); !bytes.Equal(got, ref.line(addr)) {
			t.Fatalf("store line %x mismatch\n got %x\nwant %x", addr, got, ref.line(addr))
		}
	}
	return c
}

func TestIntegrityCacheMode(t *testing.T) {
	c := runIntegrity(t, testConfig(), 30000, 42)
	if c.stats.Get("baryon.commits") == 0 {
		t.Fatal("no commits happened; test did not exercise the commit path")
	}
	if c.stats.Get("baryon.fast.hits") == 0 {
		t.Fatal("no committed-area hits; test did not exercise case 2")
	}
}

func TestIntegrityFlatMode(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = config.ModeFlat
	c := runIntegrity(t, cfg, 30000, 43)
	if c.stats.Get("baryon.swap.spread")+c.stats.Get("baryon.swap.threeWay") == 0 {
		t.Fatal("flat mode never swapped")
	}
}

func TestIntegrityFullyAssociative(t *testing.T) {
	cfg := testConfig()
	cfg.FullyAssociative = true
	runIntegrity(t, cfg, 20000, 44)
}

func TestIntegrityFlatFullyAssociative(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = config.ModeFlat
	cfg.FullyAssociative = true
	runIntegrity(t, cfg, 20000, 45)
}

func TestIntegrity64BVariant(t *testing.T) {
	cfg := testConfig()
	cfg.BlockBytes = 512
	runIntegrity(t, cfg, 20000, 46)
}

func TestIntegrityUnaligned(t *testing.T) {
	cfg := testConfig()
	cfg.CachelineAligned = false
	runIntegrity(t, cfg, 20000, 47)
}

// TestIntegrityOneSetRemapCache storms a controller whose remap cache is a
// single set, so that dirty remap lines are evicted and written back to the
// table, and checks data and invariants through it.
func TestIntegrityOneSetRemapCache(t *testing.T) {
	cfg := testConfig()
	cfg.RemapCacheSets, cfg.RemapCacheWays = 1, 2
	c := runIntegrity(t, cfg, 20000, 53)
	if c.stats.Get("remapCache.writebacks") == 0 {
		t.Fatal("no remap-cache writebacks from a one-set remap cache")
	}
	if c.stats.Get("remapCache.misses") <= c.stats.Get("remapCache.writebacks") {
		t.Fatalf("remapCache.misses = %d, writebacks = %d: every writeback follows a miss",
			c.stats.Get("remapCache.misses"), c.stats.Get("remapCache.writebacks"))
	}
}

// TestHintBitLayout checks that the CF hints fit one byte: each aligned
// pair and quad of a block's eight sub-blocks owns one distinct bit, pairs
// in bits 0-3 and quads in bits 4-5, and every sub-block of a range names
// the range's bit.
func TestHintBitLayout(t *testing.T) {
	var seen uint8
	for _, g := range []struct {
		cf   int
		bits uint8
	}{{2, 0x0F}, {4, 0x30}} {
		for start := 0; start < config.SubBlocksPerBlock; start += g.cf {
			bit := hintBit(start, g.cf)
			if bits.OnesCount8(bit) != 1 || bit&g.bits == 0 || bit&seen != 0 {
				t.Fatalf("hintBit(%d, %d) = %#x: not a fresh bit of %#x", start, g.cf, bit, g.bits)
			}
			seen |= bit
			for s := start; s < start+g.cf; s++ {
				if got := hintBit(s, g.cf); got != bit {
					t.Fatalf("hintBit(%d, %d) = %#x, want the range's %#x", s, g.cf, got, bit)
				}
			}
		}
	}
	if hintBit(0, 1) != 0 {
		t.Fatal("an uncompressed range has a hint bit")
	}
}

func TestIntegrityNoZeroOpt(t *testing.T) {
	cfg := testConfig()
	cfg.ZeroBlockOpt = false
	runIntegrity(t, cfg, 20000, 48)
}

// TestIntegrityNoStageArea drives the Fig. 13(c) ablation, whose fetched
// ranges go straight into the committed area, in both schemes: a flat
// frame it re-tags must keep its native block.
func TestIntegrityNoStageArea(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode config.Mode
		fa   bool
		seed uint64
	}{
		{"cache", config.ModeCache, false, 49},
		{"flat", config.ModeFlat, false, 54},
		{"flat-FA", config.ModeFlat, true, 61},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.UseStageArea = false
			cfg.Mode = tc.mode
			cfg.FullyAssociative = tc.fa
			c := runIntegrity(t, cfg, 20000, tc.seed)
			if c.stats.Get("baryon.resortRewrites") == 0 {
				t.Fatal("no direct inserts happened")
			}
		})
	}
}

func TestIntegrityNoTwoLevel(t *testing.T) {
	cfg := testConfig()
	cfg.TwoLevelReplacement = false
	runIntegrity(t, cfg, 20000, 50)
}

func TestIntegrityCommitAll(t *testing.T) {
	cfg := testConfig()
	cfg.CommitAll = true
	runIntegrity(t, cfg, 20000, 51)
}

func TestIntegrityKInfinity(t *testing.T) {
	cfg := testConfig()
	cfg.CommitK = -1
	runIntegrity(t, cfg, 20000, 52)
}

func TestIntegrityNoCompressedWriteback(t *testing.T) {
	cfg := testConfig()
	cfg.CompressedWriteback = false
	runIntegrity(t, cfg, 20000, 53)
}

func TestZeroBlockService(t *testing.T) {
	// An all-zero store: reads must be served as zeros and the Z path used.
	cfg := testConfig()
	store := hybrid.NewStore(nil, nil) // zero fill
	stats := sim.NewStats()
	c := New(cfg, store, stats)
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		addr := uint64(i%512) * 64
		c.Access(now, addr, false, nil)
		for _, b := range c.store.Line(addr) {
			if b != 0 {
				t.Fatal("zero block served non-zero data")
			}
		}
		now += 50
	}
	if stats.Get("baryon.servedZero") == 0 {
		t.Fatal("Z-bit path never used on an all-zero store")
	}
}

func TestCounterSanity(t *testing.T) {
	c := runIntegrity(t, testConfig(), 15000, 54)
	s := c.stats
	if s.Get("baryon.accesses") != 15000 {
		t.Fatalf("accesses=%d, want 15000", s.Get("baryon.accesses"))
	}
	reads := s.Get("baryon.reads")
	served := s.Get("baryon.servedFast") + s.Get("baryon.servedSlow")
	if served != reads {
		t.Fatalf("served (%d) != reads (%d)", served, reads)
	}
	for _, name := range []string{"DDR4-3200.bytesRead", "NVM.bytesRead", "baryon.stage.hits"} {
		if s.Get(name) == 0 {
			t.Fatalf("counter %s is zero", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	collect := func() string {
		c := runIntegrity(t, testConfig(), 8000, 99)
		return c.stats.String()
	}
	if a, b := collect(), collect(); a != b {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestTableIBudgets(t *testing.T) {
	// Section III-B storage claims at paper scale: stage tag array 448 kB,
	// remap table ~0.1% of capacity, remap cache 32 kB.
	cfg := config.PaperScale()
	if got := cfg.StageTagArrayBytes(); got != 448*1024 {
		t.Fatalf("stage tag array = %d B, want 448 kB", got)
	}
	table := cfg.RemapTableBytes()
	total := cfg.FastBytes + cfg.SlowBytes
	frac := float64(table) / float64(total)
	if frac > 0.002 || frac < 0.0004 {
		t.Fatalf("remap table fraction %.5f, want ~0.001", frac)
	}
	if sets := cfg.StageSets(); sets != 8192 {
		t.Fatalf("stage sets = %d, want 8192 (Table I)", sets)
	}

	// The simulator's own per-OS-block state: the hardware's 2 B entry,
	// held unpacked with a full-width way pointer, plus the state the entry
	// lacks. Every controller slice sized by the OS block count must be
	// named here, and DESIGN.md must state the total.
	perBlock := map[string]uintptr{
		"remap":  unsafe.Sizeof(metadata.RemapEntry{}), // Fig. 5(b) entry, 32-bit pointer
		"dirty":  1,                                    // per-sub-block dirty mask
		"cfHint": 1,                                    // Section III-F CF-2 and CF-4 hints
	}
	c := New(testConfig(), hybrid.NewStore(nil, nil), sim.NewStats())
	v := reflect.ValueOf(c).Elem()
	var bytesPerBlock uintptr
	found := map[string]bool{}
	for i := 0; i < v.NumField(); i++ {
		f, ft := v.Field(i), v.Type().Field(i)
		if f.Kind() != reflect.Slice || uint64(f.Len()) != c.geom.osBlocks {
			continue
		}
		want, ok := perBlock[ft.Name]
		if !ok {
			t.Errorf("per-OS-block field %s is not in the tally", ft.Name)
		} else if got := ft.Type.Elem().Size(); got != want {
			t.Errorf("per-OS-block field %s: %d B, tally says %d B", ft.Name, got, want)
		}
		found[ft.Name] = true
		bytesPerBlock += ft.Type.Elem().Size()
	}
	for name := range perBlock {
		if !found[name] {
			t.Errorf("tally names %s, which is no per-OS-block field", name)
		}
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d B per OS block", bytesPerBlock); !strings.Contains(string(design), want) {
		t.Errorf("DESIGN.md does not state the controller's %q", want)
	}
}
