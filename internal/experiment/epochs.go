package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"baryon/internal/cpu"
	"baryon/internal/sim"
)

// Epoch time-series export. A run configured with EpochAccesses > 0 carries
// a per-epoch window series in Result.Epochs; these writers serialise it for
// offline plotting (warmup behaviour, layout stabilisation, phase changes).

// WriteEpochCSV writes the epoch series of res as CSV with a header row.
// EndAccesses is cumulative within the measurement window; all other columns
// are per-epoch deltas. The tierBytes column carries the per-tier traffic
// breakdown of N-tier runs as a ";"-joined cell (empty on classic two-tier
// runs, matching the sweep CSV); cxlLinkBytes/cxlInternalBytes split the
// epoch's CXL-expander traffic (zero without a CXL tier).
func WriteEpochCSV(w io.Writer, res cpu.Result) error {
	if _, err := fmt.Fprintln(w,
		"epoch,endAccesses,accesses,instructions,cycles,ipc,fastServeRate,bloatFactor,fastBytes,slowBytes,tierBytes,cxlLinkBytes,cxlInternalBytes,energyPJ,memLatP50,memLatP99,memLatMax"); err != nil {
		return err
	}
	for _, e := range res.Epochs {
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%d,%d,%s,%d,%d,%.1f,%.1f,%.1f,%d\n",
			e.Index, e.EndAccesses, e.Accesses, e.Instructions, e.Cycles,
			e.IPC(), e.FastServeRate, e.BloatFactor,
			e.FastBytes, e.SlowBytes,
			TierBytesCell(e.TierBytes), e.CXLLinkBytes, e.CXLInternalBytes,
			e.EnergyPJ,
			e.MemLat.P50, e.MemLat.P99, e.MemLat.Max)
		if err != nil {
			return err
		}
	}
	return nil
}

// TierBytesCell renders a per-tier byte breakdown as the ";"-joined cell
// shared by the sweep CSV and the epoch CSV (empty for two-tier runs).
func TierBytesCell(b []uint64) string {
	if len(b) == 0 {
		return ""
	}
	parts := make([]string, len(b))
	for i, v := range b {
		parts[i] = strconv.FormatUint(v, 10)
	}
	return strings.Join(parts, ";")
}

// epochRecord is the JSONL shape of one epoch, stamped with the run's
// workload/design so concatenated streams from sweeps stay self-describing.
type epochRecord struct {
	Workload      string  `json:"workload"`
	Design        string  `json:"design"`
	Epoch         int     `json:"epoch"`
	EndAccesses   uint64  `json:"endAccesses"`
	Accesses      uint64  `json:"accesses"`
	Instructions  uint64  `json:"instructions"`
	Cycles        uint64  `json:"cycles"`
	IPC           float64 `json:"ipc"`
	FastServeRate float64 `json:"fastServeRate"`
	BloatFactor   float64 `json:"bloatFactor"`
	FastBytes     uint64  `json:"fastBytes"`
	SlowBytes     uint64  `json:"slowBytes"`
	// TierBytes is the per-tier traffic breakdown of N-tier runs (omitted
	// on two-tier runs); the CXL fields split expander traffic into
	// host-link and expander-internal bytes (omitted without a CXL tier).
	TierBytes        []uint64 `json:"tierBytes,omitempty"`
	CXLLinkBytes     uint64   `json:"cxlLinkBytes,omitempty"`
	CXLInternalBytes uint64   `json:"cxlInternalBytes,omitempty"`
	EnergyPJ         float64  `json:"energyPJ"`
	// MemLat is the epoch's whole-plane demand-latency summary.
	MemLat sim.HistSummary `json:"memLat"`
}

// WriteEpochJSONL writes the epoch series of res as one JSON object per
// line, suitable for appending across runs of a sweep.
func WriteEpochJSONL(w io.Writer, res cpu.Result) error {
	enc := json.NewEncoder(w)
	for _, e := range res.Epochs {
		rec := epochRecord{
			Workload:         res.Workload,
			Design:           res.Design,
			Epoch:            e.Index,
			EndAccesses:      e.EndAccesses,
			Accesses:         e.Accesses,
			Instructions:     e.Instructions,
			Cycles:           e.Cycles,
			IPC:              e.IPC(),
			FastServeRate:    e.FastServeRate,
			BloatFactor:      e.BloatFactor,
			FastBytes:        e.FastBytes,
			SlowBytes:        e.SlowBytes,
			TierBytes:        e.TierBytes,
			CXLLinkBytes:     e.CXLLinkBytes,
			CXLInternalBytes: e.CXLInternalBytes,
			EnergyPJ:         e.EnergyPJ,
			MemLat:           e.MemLat,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
