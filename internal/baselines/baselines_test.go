package baselines

import (
	"bytes"
	"fmt"
	"testing"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/datagen"
	"baryon/internal/hybrid"
	"baryon/internal/mem"
	"baryon/internal/sim"
)

// tableI is Table I's two-tier topology, DDR4 over NVM.
func tableI() []hybrid.TierSpec {
	return []hybrid.TierSpec{{Cfg: mem.DDR4Config()}, {Cfg: mem.NVMConfig()}}
}

var testMix = datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}

// testStore returns a store over the uniform datagen mix whose written
// lines hold bytes the test chooses, and the write that stores them:
// writeLine(addr, data) keeps a copy of data as the next version of the
// line at addr and writes that version, and the store's line function
// hands the copy back when a read makes the line. Only a line's latest
// version is kept, and making any other version panics.
func testStore() (*hybrid.Store, func(addr uint64, data []byte)) {
	type payload struct {
		v    uint32
		data []byte
	}
	lines := make(map[uint64]payload)
	var v uint32
	store := hybrid.NewStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		datagen.Filler(testMix)(uint64(b), dst)
	}, func(b hybrid.BlockID, line int, ver uint32, dst *[hybrid.CachelineSize]byte) {
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

// testLine is the content testStore gives the unwritten line at addr.
func testLine(addr uint64) []byte {
	line := make([]byte, hybrid.CachelineSize)
	b := uint64(hybrid.BlockOf(addr))
	sub := int(addr % hybrid.BlockSize / hybrid.SubBlockSize)
	datagen.FillLine(line, b, sub, int(addr%hybrid.SubBlockSize/hybrid.CachelineSize), 0, testMix.ClassFor(b))
	return line
}

// driveController exercises a controller with mixed traffic over store, a
// testStore, writing each line with writeLine before its Access as the
// runner does, and checks in the store that every write is visible when
// Access returns and every read sees the last line written there, or
// testStore's fill if none was.
func driveController(t *testing.T, ctrl hybrid.Controller, store *hybrid.Store, writeLine func(addr uint64, data []byte), accesses int, footprint uint64, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	written := make(map[uint64][]byte)
	now := uint64(0)
	for i := 0; i < accesses; i++ {
		addr := rng.Uint64n(footprint) &^ 63
		if rng.Bool(0.3) {
			data := make([]byte, 64)
			for j := range data {
				data[j] = byte(rng.Uint64() >> 32)
			}
			writeLine(addr, data)
			ctrl.Access(now, addr, true, nil)
			written[addr] = data
			if got := store.Line(addr); !bytes.Equal(got, data) {
				t.Fatalf("write not visible at %x", addr)
			}
		} else {
			res := ctrl.Access(now, addr, false, nil)
			want, ok := written[addr]
			if !ok {
				want = testLine(addr)
			}
			if got := store.Line(addr); !bytes.Equal(got, want) {
				t.Fatalf("read mismatch at %x\n got %x\nwant %x", addr, got, want)
			}
			if res.Done < now {
				t.Fatalf("completion %d before issue %d", res.Done, now)
			}
		}
		now += 40
	}
}

func TestSimpleBasics(t *testing.T) {
	store, writeLine := testStore()
	stats := sim.NewStats()
	s := NewSimple(64, 4, nil, stats, tableI())
	driveController(t, s, store, writeLine, 20000, 1<<20, 7)
	if stats.Get("simple.hits") == 0 || stats.Get("simple.misses") == 0 {
		t.Fatalf("hits=%d misses=%d; want both nonzero",
			stats.Get("simple.hits"), stats.Get("simple.misses"))
	}
	if stats.Get("simple.writebacks") == 0 {
		t.Fatal("no writebacks despite dirty evictions")
	}
}

func TestSimpleWholeBlockTraffic(t *testing.T) {
	stats := sim.NewStats()
	s := NewSimple(64, 4, nil, stats, tableI())
	s.Access(0, 0, false, nil)
	// A single miss fills a whole 2 kB block from slow memory.
	if got := stats.Get("NVM.bytesRead"); got < hybrid.BlockSize {
		t.Fatalf("miss read %d B from slow, want >= %d", got, hybrid.BlockSize)
	}
}

func TestUnisonFootprintLearning(t *testing.T) {
	stats := sim.NewStats()
	u := NewUnison(16, 4, nil, stats, 1, tableI())
	// Touch two sub-blocks of block 0, then force an eviction by filling
	// the set, then return: the footprint should be prefetched.
	u.Access(0, 0, false, nil)
	u.Access(0, 1024, false, nil)
	nsets := uint64(4)
	for i := uint64(1); i <= 4; i++ { // same set: blocks stride nsets
		u.Access(0, i*nsets*hybrid.BlockSize, false, nil)
	}
	before := stats.Get("unison.subMisses")
	u.Access(0, 0, false, nil)    // block miss, fetches learned footprint
	u.Access(0, 1024, false, nil) // should now be present
	if got := stats.Get("unison.subMisses"); got != before {
		t.Fatalf("footprint not learned: subMisses %d -> %d", before, got)
	}
}

func TestUnisonDrive(t *testing.T) {
	store, writeLine := testStore()
	stats := sim.NewStats()
	u := NewUnison(128, 4, nil, stats, 2, tableI())
	driveController(t, u, store, writeLine, 20000, 2<<20, 8)
	if stats.Get("unison.blockMisses") == 0 || stats.Get("unison.subHits") == 0 {
		t.Fatal("unison did not exercise hit and miss paths")
	}
}

func TestDICECompressionCapacity(t *testing.T) {
	// An all-zero store compresses at CF 4: one slot holds 4 lines, so the
	// second line of a group hits without a second miss.
	store := hybrid.NewStore(nil, nil)
	stats := sim.NewStats()
	d := NewDICE(1<<16, store, stats, 5, tableI())
	d.Access(0, 0, false, nil)
	res := d.Access(100, 64, false, nil)
	if !res.ServedByFast {
		t.Fatal("compressed neighbour line missed")
	}
	if stats.Get("dice.hits") != 1 {
		t.Fatalf("hits=%d, want 1", stats.Get("dice.hits"))
	}
}

func TestDICEPrefetchLines(t *testing.T) {
	store := hybrid.NewStore(nil, nil)
	stats := sim.NewStats()
	d := NewDICE(1<<16, store, stats, 5, tableI())
	d.Access(0, 0, false, nil)
	res := d.Access(10, 0, false, nil)
	if len(res.Prefetched) == 0 {
		t.Fatal("compressed hit returned no free prefetches")
	}
}

func TestDICEDrive(t *testing.T) {
	store, writeLine := testStore()
	stats := sim.NewStats()
	d := NewDICE(1<<18, store, stats, 5, tableI())
	driveController(t, d, store, writeLine, 20000, 2<<20, 9)
	if stats.Get("dice.hits") == 0 || stats.Get("dice.misses") == 0 {
		t.Fatal("DICE did not exercise both paths")
	}
}

func TestHybrid2Drive(t *testing.T) {
	cfg := config.Scaled()
	cfg.FastBytes = 1 << 20
	cfg.StageBytes = 128 << 10
	cfg.SlowBytes = 8 << 20
	store, writeLine := testStore()
	stats := sim.NewStats()
	h := NewHybrid2(cfg, store, stats)
	driveController(t, h, store, writeLine, 10000, 2<<20, 10)
	// The k=0 policy migrates when stage frames carry enough dirty data;
	// write-heavy traffic must trigger it.
	rng := sim.NewRNG(11)
	now := uint64(10000 * 40)
	for i := 0; i < 30000; i++ {
		addr := rng.Uint64n(2<<20) &^ 63
		data := make([]byte, 64)
		for j := range data {
			data[j] = byte(rng.Uint64() >> 32)
		}
		writeLine(addr, data)
		h.Access(now, addr, true, nil)
		now += 40
	}
	// Compression must be fully disabled: every staged range is CF 1, so no
	// decompressions can occur.
	if stats.Get("baryon.decompressions") != 0 {
		t.Fatal("Hybrid2 model performed decompressions")
	}
	if stats.Get("baryon.commits") == 0 {
		t.Fatal("Hybrid2 never migrated blocks")
	}
}

// TestBaryonCacheDrive runs Baryon in cache mode with compression on
// through driveController, so write hits on compressed staged and
// committed ranges, and the restaging and evictions their overflows
// cause, are checked against the store like every other design.
func TestBaryonCacheDrive(t *testing.T) {
	cfg := config.Scaled()
	cfg.FastBytes = 1 << 20
	cfg.StageBytes = 128 << 10
	cfg.SlowBytes = 8 << 20
	store, writeLine := testStore()
	stats := sim.NewStats()
	c := core.New(cfg, store, stats)
	driveController(t, c, store, writeLine, 20000, 2<<20, 14)
	for _, name := range []string{"baryon.stage.writeOverflows", "baryon.fast.writeOverflows", "baryon.decompressions"} {
		if stats.Get(name) == 0 {
			t.Errorf("%s is zero; the drive missed that path", name)
		}
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestControllersImplementInterface(t *testing.T) {
	store, _ := testStore()
	var _ hybrid.Controller = NewSimple(16, 4, nil, sim.NewStats(), tableI())
	var _ hybrid.Controller = NewUnison(16, 4, nil, sim.NewStats(), 1, tableI())
	var _ hybrid.Controller = NewDICE(1<<14, store, sim.NewStats(), 5, tableI())
	cfg := config.Scaled()
	cfg.FastBytes = 1 << 20
	cfg.StageBytes = 128 << 10
	cfg.SlowBytes = 8 << 20
	var _ hybrid.Controller = NewHybrid2(cfg, store, sim.NewStats())
}

func TestOSPagingDrive(t *testing.T) {
	store, writeLine := testStore()
	stats := sim.NewStats()
	o := NewOSPaging(1<<20, stats, tableI())
	driveController(t, o, store, writeLine, 120000, 2<<20, 12)
	if stats.Get("ospaging.migrations") == 0 {
		t.Fatal("no migrations across epochs")
	}
	if stats.Get("ospaging.hits") == 0 {
		t.Fatal("migrated pages never hit")
	}
}

func TestOSPagingEpochMigratesHotPages(t *testing.T) {
	stats := sim.NewStats()
	o := NewOSPaging(1<<20, stats, tableI())
	// Hammer a small hot set across an epoch boundary; afterwards it must
	// be fast-resident.
	now := uint64(0)
	for i := 0; i < int(osEpochLen)+10; i++ {
		addr := uint64(i%8) * osPageSize
		o.Access(now, addr, false, nil)
		now += 40
	}
	res := o.Access(now+uint64(osMigBudget)*osMigPenalty, 0, false, nil)
	if !res.ServedByFast {
		t.Fatal("hot page not migrated to fast memory after epoch")
	}
}

func TestOSPagingCoarseGranularity(t *testing.T) {
	// The structural point of the baseline: whole 4 kB pages move, so the
	// migration traffic per epoch is page-sized even when only one line per
	// page is hot.
	stats := sim.NewStats()
	o := NewOSPaging(1<<20, stats, tableI())
	now := uint64(0)
	for i := 0; i < int(osEpochLen)+1; i++ {
		addr := uint64(i%64) * osPageSize // one line per page
		o.Access(now, addr, false, nil)
		now += 40
	}
	perMig := float64(stats.Get("NVM.bytesRead")) / float64(stats.Get("ospaging.migrations"))
	if perMig < osPageSize {
		t.Fatalf("migration moved %.0f B, want >= %d (page granularity)", perMig, osPageSize)
	}
}
