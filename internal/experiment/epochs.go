package experiment

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"baryon/internal/cpu"
)

// Epoch time-series export. A run configured with EpochAccesses > 0 carries
// a per-epoch window series in Result.Epochs; WriteEpochCSV serialises it for
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
