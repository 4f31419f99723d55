package cpu

import (
	"bytes"
	"context"
	"testing"

	"baryon/internal/baselines"
	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/datagen"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// endToEndIntegrity runs a workload through the full stack (cores -> L1/L2
// -> LLC -> controller), checks the hierarchy's inclusion and sharer
// invariant, flushes the hierarchy, and verifies that the store then equals
// the functional image for every line the run wrote — the strongest
// whole-system correctness check: every
// migration, compression, commit, swap and writeback in between must have
// preserved the bytes. Each expected line is generated with
// datagen.FillLine at the version of its last write, apart from the
// store's own way of making a written line.
func endToEndIntegrity(t *testing.T, cfg config.Config, factory ControllerFactory, wname string) {
	t.Helper()
	w, ok := trace.ByName(wname)
	if !ok {
		t.Fatalf("workload %s missing", wname)
	}
	r := NewRunnerSource(cfg, w, factory)
	res, err := r.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if err := r.hier.CheckInclusion(); err != nil {
		t.Fatalf("%s: %v", wname, err)
	}
	r.hier.Flush(res.Cycles)
	want := make([]byte, hybrid.CachelineSize)
	checked := 0
	for b, rec := range r.world.index {
		for line, v := range rec {
			if v == 0 {
				continue // never written by a core
			}
			addr := b*hybrid.BlockSize + uint64(line)*hybrid.CachelineSize
			datagen.FillLine(want, b, line/hybrid.LinesPerSub, line%hybrid.LinesPerSub, v, w.Mix.ClassFor(b))
			if got := r.store.Line(addr); !bytes.Equal(got, want) {
				t.Fatalf("%s: line %#x diverged after flush\n got %x\nwant %x",
					wname, addr, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no written lines to check")
	}
	t.Logf("%s: %d written lines verified", wname, checked)
}

func smallIntegrityConfig() config.Config {
	cfg := config.Scaled()
	cfg.FastBytes = 2 << 20
	cfg.StageBytes = 128 << 10
	cfg.SlowBytes = 16 << 20
	cfg.LLCKB = 32
	cfg.AccessesPerCore = 2500
	return cfg
}

func TestEndToEndIntegrityBaryon(t *testing.T) {
	factory := func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
		return core.New(cfg, store, stats)
	}
	for _, wname := range []string{"505.mcf_r", "519.lbm_r", "YCSB-A"} {
		t.Run(wname, func(t *testing.T) {
			endToEndIntegrity(t, smallIntegrityConfig(), factory, wname)
		})
	}
}

func TestEndToEndIntegrityDetailedDDR(t *testing.T) {
	cfg := smallIntegrityConfig()
	cfg.Tiers = []config.TierConfig{{Preset: "ddr4-detailed"}, {Preset: "nvm"}}
	factory := func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
		return core.New(cfg, store, stats)
	}
	endToEndIntegrity(t, cfg, factory, "549.fotonik3d_r")
}

func TestEndToEndIntegrityBaryonFlat(t *testing.T) {
	cfg := smallIntegrityConfig()
	cfg.Mode = config.ModeFlat
	cfg.FullyAssociative = true
	factory := func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
		return core.New(cfg, store, stats)
	}
	endToEndIntegrity(t, cfg, factory, "520.omnetpp_r")
}

func TestEndToEndIntegrityBaselines(t *testing.T) {
	cfg := smallIntegrityConfig()
	tiers, err := cfg.TierSpecs()
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]ControllerFactory{
		"simple": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewSimple(cfg.FastBytes/hybrid.BlockSize, cfg.Assoc, nil, stats, tiers)
		},
		"unison": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewUnison(cfg.FastBytes/hybrid.BlockSize, cfg.Assoc, nil, stats, cfg.Seed, tiers)
		},
		"dice": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewDICE(cfg.FastBytes, store, stats, cfg.DecompressLatency, tiers)
		},
		"hybrid2": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewHybrid2(cfg, store, stats)
		},
		"ospaging": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewOSPaging(cfg.FastBytes, stats, tiers)
		},
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			endToEndIntegrity(t, cfg, f, "507.cactuBSSN_r")
		})
	}
}

// TestWorldWriteVersioning verifies the functional image: repeated writes to
// a line change its value, a write to a neighbouring line of the same
// sub-block leaves it as it was and takes the sub-block's next version, and
// storeLine stores the latest write.
func TestWorldWriteVersioning(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	store := newStore(w.Mix)
	wd := newWorld(store)
	stored := func(addr uint64) []byte {
		wd.storeLine(addr)
		return append([]byte(nil), store.Line(addr)...)
	}
	fillLine := func(line int, v uint32) []byte {
		dst := make([]byte, hybrid.CachelineSize)
		datagen.FillLine(dst, 2, 0, line, v, w.Mix.ClassFor(2))
		return dst
	}
	addr := uint64(4096) // block 2, sub-block 0, line 0
	wd.writeValue(addr)
	v1 := stored(addr)
	wd.writeValue(addr)
	v2 := stored(addr)
	if bytes.Equal(v1, v2) {
		t.Fatal("two writes produced identical values")
	}
	if !bytes.Equal(v2, fillLine(0, 2)) {
		t.Fatal("second write is not the sub-block's version 2")
	}
	wd.writeValue(addr + 64)
	if !bytes.Equal(stored(addr), v2) {
		t.Fatal("a neighbour's write changed the line")
	}
	if !bytes.Equal(stored(addr+64), fillLine(1, 3)) {
		t.Fatal("the neighbour's write is not the sub-block's version 3")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("storing a line no core wrote did not panic")
		}
	}()
	wd.storeLine(1 << 20)
}
