package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
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

	// The JSONL shape omits the N-tier fields entirely on two-tier runs.
	var jsonBuf bytes.Buffer
	if err := WriteEpochJSONL(&jsonBuf, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(jsonBuf.String(), "tierBytes") || strings.Contains(jsonBuf.String(), "cxlLinkBytes") {
		t.Fatalf("two-tier JSONL carries N-tier fields:\n%s", jsonBuf.String())
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

	// CSV rows carry the ";"-joined breakdown and nonzero link bytes.
	var csvBuf bytes.Buffer
	if err := WriteEpochCSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	idx := map[string]int{}
	for i, h := range strings.Split(lines[0], ",") {
		idx[h] = i
	}
	var csvLink bool
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if parts := strings.Split(f[idx["tierBytes"]], ";"); len(parts) != 3 {
			t.Fatalf("tierBytes cell %q does not hold 3 tiers", f[idx["tierBytes"]])
		}
		if f[idx["cxlLinkBytes"]] != "0" {
			csvLink = true
		}
	}
	if !csvLink {
		t.Fatal("CSV series shows no CXL link traffic")
	}

	// JSONL rows decode with the same values the Epoch structs carry.
	var jsonBuf bytes.Buffer
	if err := WriteEpochJSONL(&jsonBuf, res); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&jsonBuf)
	for i := 0; dec.More(); i++ {
		var rec struct {
			TierBytes        []uint64 `json:"tierBytes"`
			CXLLinkBytes     uint64   `json:"cxlLinkBytes"`
			CXLInternalBytes uint64   `json:"cxlInternalBytes"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.TierBytes) != 3 {
			t.Fatalf("JSONL record %d: tierBytes %v", i, rec.TierBytes)
		}
		if rec.CXLLinkBytes != res.Epochs[i].CXLLinkBytes {
			t.Fatalf("JSONL record %d: link bytes %d != epoch %d", i, rec.CXLLinkBytes, res.Epochs[i].CXLLinkBytes)
		}
	}
}
