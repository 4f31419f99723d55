package baselines

import (
	"bytes"
	"testing"

	"baryon/internal/config"
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

func testStore() *hybrid.Store {
	return hybrid.NewStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		datagen.Filler(testMix)(uint64(b), dst)
	})
}

// testLine is the content testStore gives the unwritten line at addr.
func testLine(addr uint64) []byte {
	line := make([]byte, hybrid.CachelineSize)
	b := uint64(hybrid.BlockOf(addr))
	sub := int(addr % hybrid.BlockSize / hybrid.SubBlockSize)
	datagen.FillLine(line, b, sub, int(addr%hybrid.SubBlockSize/hybrid.CachelineSize), 0, testMix.ClassFor(b))
	return line
}

// driveController exercises a controller with mixed traffic over a
// testStore and checks, through PeekLine, that every read sees the last
// line written there, or testStore's fill if none was.
func driveController(t *testing.T, ctrl hybrid.Controller, accesses int, footprint uint64, seed uint64) {
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
			ctrl.Access(now, addr, true, data)
			written[addr] = data
			if got := ctrl.PeekLine(addr); !bytes.Equal(got, data) {
				t.Fatalf("%s: write not visible at %x", ctrl.Name(), addr)
			}
		} else {
			res := ctrl.Access(now, addr, false, nil)
			want, ok := written[addr]
			if !ok {
				want = testLine(addr)
			}
			if got := ctrl.PeekLine(addr); !bytes.Equal(got, want) {
				t.Fatalf("%s: read mismatch at %x\n got %x\nwant %x", ctrl.Name(), addr, got, want)
			}
			if res.Done < now {
				t.Fatalf("%s: completion %d before issue %d", ctrl.Name(), res.Done, now)
			}
		}
		now += 40
	}
}

func TestSimpleBasics(t *testing.T) {
	store := testStore()
	stats := sim.NewStats()
	s := NewSimple(64, 4, nil, store, stats, tableI())
	driveController(t, s, 20000, 1<<20, 7)
	if stats.Get("simple.hits") == 0 || stats.Get("simple.misses") == 0 {
		t.Fatalf("hits=%d misses=%d; want both nonzero",
			stats.Get("simple.hits"), stats.Get("simple.misses"))
	}
	if stats.Get("simple.writebacks") == 0 {
		t.Fatal("no writebacks despite dirty evictions")
	}
}

// TestReadsLeaveStoreUntouched checks that designs which never inspect
// content serve reads without materialising any store block: reads return
// timing only.
func TestReadsLeaveStoreUntouched(t *testing.T) {
	for _, mk := range []func(*hybrid.Store) hybrid.Controller{
		func(st *hybrid.Store) hybrid.Controller { return NewSimple(64, 4, nil, st, sim.NewStats(), tableI()) },
		func(st *hybrid.Store) hybrid.Controller {
			return NewUnison(128, 4, nil, st, sim.NewStats(), 2, tableI())
		},
		func(st *hybrid.Store) hybrid.Controller { return NewOSPaging(1<<20, st, sim.NewStats(), tableI()) },
	} {
		// With nothing written, a block's first read runs the fill, so no
		// fill means no block was read.
		fills := 0
		store := hybrid.NewStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
			fills++
			datagen.Filler(testMix)(uint64(b), dst)
		})
		ctrl := mk(store)
		rng := sim.NewRNG(13)
		now := uint64(0)
		for i := 0; i < 20000; i++ {
			ctrl.Access(now, rng.Uint64n(4<<20)&^63, false, nil)
			now += 40
		}
		if fills != 0 {
			t.Errorf("%s: read-only stream read %d store blocks, want 0", ctrl.Name(), fills)
		}
	}
}

// TestWriteOnlyStoreNeverFills checks that designs which never inspect
// content store written lines without running the store's fill: a block is
// filled on its first read, and these designs never read one.
func TestWriteOnlyStoreNeverFills(t *testing.T) {
	for _, mk := range []func(*hybrid.Store) hybrid.Controller{
		func(st *hybrid.Store) hybrid.Controller { return NewSimple(64, 4, nil, st, sim.NewStats(), tableI()) },
		func(st *hybrid.Store) hybrid.Controller {
			return NewUnison(128, 4, nil, st, sim.NewStats(), 2, tableI())
		},
		func(st *hybrid.Store) hybrid.Controller { return NewOSPaging(1<<20, st, sim.NewStats(), tableI()) },
	} {
		fills := 0
		store := hybrid.NewStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
			fills++
			datagen.Filler(testMix)(uint64(b), dst)
		})
		ctrl := mk(store)
		rng := sim.NewRNG(17)
		written := map[uint64][]byte{}
		now := uint64(0)
		for i := 0; i < 20000; i++ {
			data := make([]byte, hybrid.CachelineSize)
			for j := range data {
				data[j] = byte(rng.Uint64() >> 32)
			}
			addr := rng.Uint64n(4<<20) &^ 63
			ctrl.Access(now, addr, true, data)
			written[addr] = data
			now += 40
		}
		// Reading a written line back runs no fill, so this proves the
		// writes reached the store without disturbing the count below.
		for addr, want := range written {
			if got := ctrl.PeekLine(addr); !bytes.Equal(got, want) {
				t.Fatalf("%s: line %#x reads back %x, want %x", ctrl.Name(), addr, got, want)
			}
		}
		if fills != 0 {
			t.Errorf("%s: write-only stream ran the fill %d times, want 0", ctrl.Name(), fills)
		}
	}
}

func TestSimpleWholeBlockTraffic(t *testing.T) {
	store := testStore()
	stats := sim.NewStats()
	s := NewSimple(64, 4, nil, store, stats, tableI())
	s.Access(0, 0, false, nil)
	// A single miss fills a whole 2 kB block from slow memory.
	if got := stats.Get("NVM.bytesRead"); got < hybrid.BlockSize {
		t.Fatalf("miss read %d B from slow, want >= %d", got, hybrid.BlockSize)
	}
}

func TestUnisonFootprintLearning(t *testing.T) {
	store := testStore()
	stats := sim.NewStats()
	u := NewUnison(16, 4, nil, store, stats, 1, tableI())
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
	store := testStore()
	stats := sim.NewStats()
	u := NewUnison(128, 4, nil, store, stats, 2, tableI())
	driveController(t, u, 20000, 2<<20, 8)
	if stats.Get("unison.blockMisses") == 0 || stats.Get("unison.subHits") == 0 {
		t.Fatal("unison did not exercise hit and miss paths")
	}
}

func TestDICECompressionCapacity(t *testing.T) {
	// An all-zero store compresses at CF 4: one slot holds 4 lines, so the
	// second line of a group hits without a second miss.
	store := hybrid.NewStore(nil)
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
	store := hybrid.NewStore(nil)
	stats := sim.NewStats()
	d := NewDICE(1<<16, store, stats, 5, tableI())
	d.Access(0, 0, false, nil)
	res := d.Access(10, 0, false, nil)
	if len(res.Prefetched) == 0 {
		t.Fatal("compressed hit returned no free prefetches")
	}
}

func TestDICEDrive(t *testing.T) {
	store := testStore()
	stats := sim.NewStats()
	d := NewDICE(1<<18, store, stats, 5, tableI())
	driveController(t, d, 20000, 2<<20, 9)
	if stats.Get("dice.hits") == 0 || stats.Get("dice.misses") == 0 {
		t.Fatal("DICE did not exercise both paths")
	}
}

func TestHybrid2Drive(t *testing.T) {
	cfg := config.Scaled()
	cfg.FastBytes = 1 << 20
	cfg.StageBytes = 128 << 10
	cfg.SlowBytes = 8 << 20
	store := testStore()
	stats := sim.NewStats()
	h := NewHybrid2(cfg, store, stats)
	driveController(t, h, 10000, 2<<20, 10)
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
		h.Access(now, addr, true, data)
		now += 40
	}
	if h.Name() != "Hybrid2" {
		t.Fatalf("name=%q", h.Name())
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

func TestControllersImplementInterface(t *testing.T) {
	store := testStore()
	var _ hybrid.Controller = NewSimple(16, 4, nil, store, sim.NewStats(), tableI())
	var _ hybrid.Controller = NewUnison(16, 4, nil, store, sim.NewStats(), 1, tableI())
	var _ hybrid.Controller = NewDICE(1<<14, store, sim.NewStats(), 5, tableI())
	cfg := config.Scaled()
	cfg.FastBytes = 1 << 20
	cfg.StageBytes = 128 << 10
	cfg.SlowBytes = 8 << 20
	var _ hybrid.Controller = NewHybrid2(cfg, store, sim.NewStats())
}

func TestOSPagingDrive(t *testing.T) {
	store := testStore()
	stats := sim.NewStats()
	o := NewOSPaging(1<<20, store, stats, tableI())
	driveController(t, o, 120000, 2<<20, 12)
	if stats.Get("ospaging.migrations") == 0 {
		t.Fatal("no migrations across epochs")
	}
	if stats.Get("ospaging.hits") == 0 {
		t.Fatal("migrated pages never hit")
	}
}

func TestOSPagingEpochMigratesHotPages(t *testing.T) {
	store := testStore()
	stats := sim.NewStats()
	o := NewOSPaging(1<<20, store, stats, tableI())
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
	store := testStore()
	stats := sim.NewStats()
	o := NewOSPaging(1<<20, store, stats, tableI())
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
