package experiment

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/mem"
	"baryon/internal/trace"
)

// epochTestConfig runs long enough to close several epochs.
func epochTestConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1000
	cfg.EpochAccesses = 4000
	cfg.Seed = 1
	return cfg
}

// threeTierConfig puts the far side behind an NVM window plus a CXL
// expander, the topology whose epoch series must carry the per-tier and
// link/internal columns.
func threeTierConfig() config.Config {
	cfg := epochTestConfig()
	cfg.Tiers = []config.TierConfig{
		{Preset: "ddr4"},
		{Preset: "nvm", Bytes: 8 << 20},
		{Preset: "cxl-ibex", CXL: &mem.CXLParams{
			LinkLatencyCycles:     96,
			LinkBytesPerCycle:     8,
			InternalBytesPerCycle: 12,
			Compression:           "best",
		}},
	}
	return cfg
}

func TestEpochSeriesTwoTierOmitsTierColumns(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	res := runOne(t, epochTestConfig(), w, DesignBaryon)
	if len(res.Epochs) == 0 {
		t.Fatal("no epochs collected")
	}
	var csvBuf bytes.Buffer
	if err := WriteEpochCSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&csvBuf)
	sc.Scan()
	header := strings.Split(sc.Text(), ",")
	idx := map[string]int{}
	for i, h := range header {
		idx[h] = i
	}
	for _, col := range []string{"tierBytes", "cxlLinkBytes", "cxlInternalBytes"} {
		if _, ok := idx[col]; !ok {
			t.Fatalf("epoch CSV header lacks %q: %v", col, header)
		}
	}
	for sc.Scan() {
		f := strings.Split(sc.Text(), ",")
		if f[idx["tierBytes"]] != "" {
			t.Fatalf("two-tier epoch row has tierBytes %q", f[idx["tierBytes"]])
		}
		if f[idx["cxlLinkBytes"]] != "0" || f[idx["cxlInternalBytes"]] != "0" {
			t.Fatalf("two-tier epoch row has CXL traffic: %s", sc.Text())
		}
	}
}

func TestEpochSeriesThreeTierCXLColumns(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	res := runOne(t, threeTierConfig(), w, DesignBaryon)
	if len(res.Epochs) == 0 {
		t.Fatal("no epochs collected")
	}

	var sawTier, sawLink bool
	for _, e := range res.Epochs {
		if len(e.TierBytes) != 3 {
			t.Fatalf("epoch %d: TierBytes has %d entries, want 3", e.Index, len(e.TierBytes))
		}
		var total uint64
		for _, b := range e.TierBytes {
			total += b
		}
		if total > 0 {
			sawTier = true
		}
		if e.CXLLinkBytes > 0 {
			sawLink = true
			if e.CXLInternalBytes > e.CXLLinkBytes {
				t.Fatalf("epoch %d: internal bytes %d exceed link bytes %d (compression can only shrink the internal path)",
					e.Index, e.CXLInternalBytes, e.CXLLinkBytes)
			}
		}
	}
	if !sawTier {
		t.Fatal("no epoch recorded any tier traffic")
	}
	if !sawLink {
		t.Fatal("no epoch recorded CXL link traffic on a CXL topology")
	}

	// Every CSV cell parses back to the value its Epoch struct carries;
	// floats are printed rounded, so they match within half the last digit.
	var csvBuf bytes.Buffer
	if err := WriteEpochCSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)-1 != len(res.Epochs) {
		t.Fatalf("CSV has %d rows, want one per epoch (%d)", len(rows)-1, len(res.Epochs))
	}
	for i, row := range rows[1:] {
		e := res.Epochs[i]
		cell := make(map[string]string, len(row))
		for j, h := range rows[0] {
			cell[h] = row[j]
		}
		ints := []struct {
			col  string
			want uint64
		}{
			{"epoch", uint64(e.Index)}, {"endAccesses", e.EndAccesses}, {"accesses", e.Accesses},
			{"instructions", e.Instructions}, {"cycles", e.Cycles},
			{"fastBytes", e.FastBytes}, {"slowBytes", e.SlowBytes},
			{"cxlLinkBytes", e.CXLLinkBytes}, {"cxlInternalBytes", e.CXLInternalBytes},
			{"memLatMax", e.MemLat.Max},
		}
		for _, c := range ints {
			if got, err := strconv.ParseUint(cell[c.col], 10, 64); err != nil || got != c.want {
				t.Fatalf("epoch %d: %s cell %q, want %d", i, c.col, cell[c.col], c.want)
			}
		}
		floats := []struct {
			col       string
			want, tol float64
		}{
			{"ipc", e.IPC(), 5e-7}, {"fastServeRate", e.FastServeRate, 5e-7}, {"bloatFactor", e.BloatFactor, 5e-7},
			{"energyPJ", e.EnergyPJ, 0.05}, {"memLatP50", e.MemLat.P50, 0.05}, {"memLatP99", e.MemLat.P99, 0.05},
		}
		for _, c := range floats {
			if got, err := strconv.ParseFloat(cell[c.col], 64); err != nil || math.Abs(got-c.want) > c.tol*1.001 {
				t.Fatalf("epoch %d: %s cell %q, want %g", i, c.col, cell[c.col], c.want)
			}
		}
		tiers := strings.Split(cell["tierBytes"], ";")
		if len(tiers) != len(e.TierBytes) {
			t.Fatalf("epoch %d: tierBytes cell %q, want %v", i, cell["tierBytes"], e.TierBytes)
		}
		for k, v := range tiers {
			if got, err := strconv.ParseUint(v, 10, 64); err != nil || got != e.TierBytes[k] {
				t.Fatalf("epoch %d: tierBytes cell %q, want %v", i, cell["tierBytes"], e.TierBytes)
			}
		}
		if checked := len(ints) + len(floats) + 1; checked != len(rows[0]) {
			t.Fatalf("checked %d of the %d CSV columns %v", checked, len(rows[0]), rows[0])
		}
	}
}
