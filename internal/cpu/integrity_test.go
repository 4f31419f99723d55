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
// preserved the bytes. The reference is built outside hybrid.Store: a
// recorder logs every write the cores issue, in issue order, and a replay
// of that log through the version rule gives each written line's version;
// each expected line is generated with datagen.FillLine at that version.
func endToEndIntegrity(t *testing.T, cfg config.Config, factory ControllerFactory, wname string) {
	t.Helper()
	w, ok := trace.ByName(wname)
	if !ok {
		t.Fatalf("workload %s missing", wname)
	}
	src := &writeRecorder{Source: w}
	r := NewRunnerSource(cfg, src, factory)
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
	for b, rec := range replayWrites(src.writes, cfg.OSBlocks()*cfg.BlockBytes) {
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

// writeRecorder is a trace.Source whose streamers log the address of every
// write they hand out. The runner draws accesses one Next call at a time
// in its interleaved issue order, so the log is the order the cores wrote
// in.
type writeRecorder struct {
	trace.Source
	writes []uint64
}

func (s *writeRecorder) Streams(cores int, fastBlocks uint64, seed uint64) []trace.Streamer {
	streams := s.Source.Streams(cores, fastBlocks, seed)
	for c, st := range streams {
		streams[c] = recordingStreamer{st, s}
	}
	return streams
}

type recordingStreamer struct {
	trace.Streamer
	rec *writeRecorder
}

func (s recordingStreamer) Next() trace.Access {
	acc := s.Streamer.Next()
	if acc.Write {
		s.rec.writes = append(s.rec.writes, acc.Addr)
	}
	return acc
}

// replayWrites maps each written block to its lines' versions after the
// logged writes: a write folds its address into the OS space as the runner
// does, and the line takes its sub-block's next version, the largest of the
// sub-block's four lines' plus one.
func replayWrites(writes []uint64, osBytes uint64) map[uint64]*[hybrid.BlockSize / hybrid.CachelineSize]uint32 {
	image := map[uint64]*[hybrid.BlockSize / hybrid.CachelineSize]uint32{}
	for _, a := range writes {
		addr := a % osBytes
		rec := image[addr/hybrid.BlockSize]
		if rec == nil {
			rec = new([hybrid.BlockSize / hybrid.CachelineSize]uint32)
			image[addr/hybrid.BlockSize] = rec
		}
		line := addr % hybrid.BlockSize / hybrid.CachelineSize
		next := uint32(0)
		for _, v := range rec[line&^(hybrid.LinesPerSub-1):][:hybrid.LinesPerSub] {
			next = max(next, v)
		}
		rec[line] = next + 1
	}
	return image
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
