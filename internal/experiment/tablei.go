package experiment

import (
	"fmt"

	"baryon/internal/config"
)

// TableI renders the Table I system configuration and verifies the paper's
// metadata storage budgets at full (paper) scale: a 448 kB stage tag array,
// a 32 kB remap cache, and a remap table of about 0.1% of system capacity.
func TableI() *Table {
	paper := config.PaperScale()
	scaled := config.Scaled()

	t := &Table{
		Title:  "Table I: system configuration and metadata budgets",
		Header: []string{"parameter", "paper scale", "scaled runs"},
	}
	row := func(name, p, s string) { t.AddRow(name, p, s) }
	row("cores", fmt.Sprint(paper.Cores), fmt.Sprint(scaled.Cores))
	row("fast memory (DDR4-3200)", byteSize(paper.FastBytes), byteSize(scaled.FastBytes))
	row("slow memory (NVM)", byteSize(paper.SlowBytes), byteSize(scaled.SlowBytes))
	row("stage area", byteSize(paper.StageBytes), byteSize(scaled.StageBytes))
	row("stage sets x ways", fmt.Sprintf("%d x 4", paper.StageSets()), fmt.Sprintf("%d x 4", scaled.StageSets()))
	row("block / sub-block / super", "2kB / 256B / 16kB", "2kB / 256B / 16kB")
	row("associativity", fmt.Sprint(paper.Assoc), fmt.Sprint(scaled.Assoc))
	row("LLC", byteSize(uint64(paper.LLCKB)*1024), byteSize(uint64(scaled.LLCKB)*1024))
	row("stage tag array (14B/entry)", byteSize(paper.StageTagArrayBytes()), byteSize(scaled.StageTagArrayBytes()))
	row("remap table (2B/block)", byteSize(paper.RemapTableBytes()), byteSize(scaled.RemapTableBytes()))
	row("remap table / capacity", fmt.Sprintf("%.3f%%",
		100*float64(paper.RemapTableBytes())/float64(paper.FastBytes+paper.SlowBytes)), "")
	row("remap cache (256x8, 16B lines)", byteSize(paper.RemapCacheBytes()), "same")
	row("stage tag latency", fmt.Sprintf("%d cycles", config.StageTagLatency), "same")
	row("remap cache latency", fmt.Sprintf("%d cycles", config.RemapCacheLatency), "same")
	row("decompression latency", fmt.Sprintf("%d cycles", paper.DecompressLatency), "same")
	t.Notes = append(t.Notes,
		"paper budgets: stage tag 448 kB, remap cache 32 kB, table ~0.1% of capacity",
		fmt.Sprintf("total controller SRAM at paper scale: %s",
			byteSize(paper.StageTagArrayBytes()+paper.RemapCacheBytes())))
	return t
}
