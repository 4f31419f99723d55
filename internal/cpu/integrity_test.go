package cpu

import (
	"bytes"
	"context"
	"testing"

	"baryon/internal/baselines"
	"baryon/internal/config"
	"baryon/internal/core"
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
// preserved the bytes.
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
		t.Fatalf("%s/%s: %v", r.ctrl.Name(), wname, err)
	}
	r.hier.Flush(res.Cycles)
	checked := 0
	for addr := range r.world.dirty {
		want := r.world.lineData(addr)
		if got := r.store.Line(addr); !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: line %#x diverged after flush\n got %x\nwant %x",
				r.ctrl.Name(), wname, addr, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no written lines to check")
	}
	t.Logf("%s on %s: %d written lines verified", r.ctrl.Name(), wname, checked)
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
			return baselines.NewSimple(cfg.FastBytes/hybrid.BlockSize, cfg.Assoc, nil, store, stats, tiers)
		},
		"unison": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewUnison(cfg.FastBytes/hybrid.BlockSize, cfg.Assoc, nil, store, stats, cfg.Seed, tiers)
		},
		"dice": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewDICE(cfg.FastBytes, store, stats, cfg.DecompressLatency, tiers)
		},
		"hybrid2": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewHybrid2(cfg, store, stats)
		},
		"ospaging": func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return baselines.NewOSPaging(cfg.FastBytes, store, stats, tiers)
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
// sub-block leaves it as it was, and lineData always returns the latest.
func TestWorldWriteVersioning(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	store := hybrid.NewStore(nil)
	wd := newWorld(w.Mix, store)
	addr := uint64(4096)
	wd.writeValue(addr)
	v1 := append([]byte(nil), wd.lineData(addr)...)
	wd.writeValue(addr)
	v2 := append([]byte(nil), wd.lineData(addr)...)
	if bytes.Equal(v1, v2) {
		t.Fatal("two writes produced identical values")
	}
	wd.writeValue(addr + 64)
	if !bytes.Equal(wd.lineData(addr), v2) {
		t.Fatal("lineData not the latest write")
	}
	if !bytes.Equal(wd.lineData(addr+128), store.Line(addr+128)) {
		t.Fatal("clean line not served from store")
	}
}
