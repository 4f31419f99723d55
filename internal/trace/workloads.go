package trace

import "baryon/internal/datagen"

// The workload suite of Section IV-A, recast as synthetic generators. The
// parameters are calibrated to the per-workload properties the paper reports
// or that follow from the benchmarks' known behaviour:
//
//   - FootprintFactor reproduces footprint-vs-fast-memory pressure (SPEC
//     5.8-13.4 GB against 4 GB fast memory => 1.45x-3.35x; GAP up to 8.6x).
//   - Mix reproduces compression factors (lbm ~1.0, fotonik3d ~2.4,
//     YCSB zero-heavy, etc.).
//   - BlockUtil and BurstLines reproduce spatial locality (xz low,
//     streaming codes high).
//   - WriteRatio reproduces write intensity (lbm very high, YCSB-A 50 %).

func mix(zero, smallInt, pointer, flt, random float64) datagen.Mix {
	return datagen.Mix{Weights: [5]float64{zero, smallInt, pointer, flt, random}}
}

// SPEC returns the SPEC CPU2017-like workloads (rate mode: private copies).
func SPEC() []Workload {
	return []Workload{
		{Name: "505.mcf_r", Pattern: PatternZipf, FootprintFactor: 2.6, BlockUtil: 0.50,
			WriteRatio: 0.25, BurstLines: 8, GapMean: 6, ZipfTheta: 0.85, Mix: mix(1, 3, 4, 0, 2)},
		{Name: "519.lbm_r", Pattern: PatternStream, FootprintFactor: 1.5, BlockUtil: 1.0,
			WriteRatio: 0.50, BurstLines: 8, GapMean: 5, Mix: mix(0, 0, 0, 1, 9)},
		{Name: "520.omnetpp_r", Pattern: PatternZipf, FootprintFactor: 2.6, BlockUtil: 0.40,
			WriteRatio: 0.30, BurstLines: 6, GapMean: 8, ZipfTheta: 0.85, Mix: mix(1, 2, 5, 0, 2)},
		{Name: "557.xz_r", Pattern: PatternZipf, FootprintFactor: 2.0, BlockUtil: 0.25,
			WriteRatio: 0.35, BurstLines: 1, GapMean: 7, ZipfTheta: 0.80, Mix: mix(1, 4, 0, 1, 4)},
		{Name: "549.fotonik3d_r", Pattern: PatternStream, FootprintFactor: 3.3, BlockUtil: 1.0,
			WriteRatio: 0.25, BurstLines: 8, GapMean: 5, Mix: mix(3, 2, 0, 5, 0)},
		{Name: "503.bwaves_r", Pattern: PatternStream, FootprintFactor: 2.8, BlockUtil: 0.9,
			WriteRatio: 0.20, BurstLines: 6, GapMean: 6, Mix: mix(1, 1, 0, 5, 3)},
		{Name: "507.cactuBSSN_r", Pattern: PatternZipf, FootprintFactor: 2.2, BlockUtil: 0.6,
			WriteRatio: 0.30, BurstLines: 6, GapMean: 7, ZipfTheta: 0.82, Mix: mix(1, 2, 1, 4, 2)},
		{Name: "554.roms_r", Pattern: PatternStream, FootprintFactor: 2.1, BlockUtil: 0.9,
			WriteRatio: 0.25, BurstLines: 6, GapMean: 6, Mix: mix(2, 1, 0, 5, 2)},
	}
}

// GAP returns the graph workloads (shared footprint, 16 threads).
func GAP() []Workload {
	return []Workload{
		{Name: "pr.twi", Pattern: PatternGraph, FootprintFactor: 8.0, Shared: true, BlockUtil: 0.35,
			WriteRatio: 0.15, BurstLines: 6, GapMean: 6, ZipfTheta: 0.95, Mix: mix(1, 4, 1, 3, 1)},
		{Name: "pr.web", Pattern: PatternGraph, FootprintFactor: 6.0, Shared: true, BlockUtil: 0.45,
			WriteRatio: 0.15, BurstLines: 6, GapMean: 6, ZipfTheta: 0.90, Mix: mix(1, 4, 1, 3, 1)},
		{Name: "cc.twi", Pattern: PatternGraph, FootprintFactor: 8.0, Shared: true, BlockUtil: 0.35,
			WriteRatio: 0.25, BurstLines: 6, GapMean: 5, ZipfTheta: 0.95, Mix: mix(2, 5, 0, 1, 2)},
		{Name: "cc.web", Pattern: PatternGraph, FootprintFactor: 6.0, Shared: true, BlockUtil: 0.45,
			WriteRatio: 0.25, BurstLines: 6, GapMean: 5, ZipfTheta: 0.90, Mix: mix(2, 5, 0, 1, 2)},
	}
}

// DNN returns the OneDNN inference workloads (shared weight tensors).
func DNN() []Workload {
	return []Workload{
		{Name: "resnet50", Pattern: PatternStream, FootprintFactor: 3.6, Shared: true, BlockUtil: 1.0,
			WriteRatio: 0.10, BurstLines: 8, GapMean: 9, Mix: mix(1, 1, 0, 6, 2)},
		{Name: "resnext50", Pattern: PatternStream, FootprintFactor: 4.5, Shared: true, BlockUtil: 1.0,
			WriteRatio: 0.10, BurstLines: 8, GapMean: 9, Mix: mix(1, 1, 0, 6, 2)},
	}
}

// YCSB returns the memcached+YCSB workloads (30 M 1 kB records in the
// paper; scaled with the footprint factor here).
func YCSB() []Workload {
	return []Workload{
		{Name: "YCSB-A", Pattern: PatternKV, FootprintFactor: 10.0, Shared: true, BlockUtil: 0.5,
			WriteRatio: 0.50, GapMean: 10, ZipfTheta: 0.99, Mix: mix(4, 3, 1, 0, 2)},
		{Name: "YCSB-B", Pattern: PatternKV, FootprintFactor: 10.0, Shared: true, BlockUtil: 0.5,
			WriteRatio: 0.05, GapMean: 10, ZipfTheta: 0.99, Mix: mix(4, 3, 1, 0, 2)},
	}
}

// All returns the full 16-workload suite in the paper's presentation order.
func All() []Workload {
	var out []Workload
	out = append(out, SPEC()...)
	out = append(out, GAP()...)
	out = append(out, DNN()...)
	out = append(out, YCSB()...)
	return out
}

// Representative returns the per-domain subset used by the analysis figures
// (Figs. 11-13 use representative workloads from each domain).
func Representative() []Workload {
	names := []string{"505.mcf_r", "520.omnetpp_r", "549.fotonik3d_r", "pr.twi", "resnet50", "YCSB-A"}
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		out = append(out, byName[n])
	}
	return out
}

// byName indexes All by name once, at package load: ByName runs on every
// service request.
var byName = func() map[string]Workload {
	m := make(map[string]Workload)
	for _, w := range All() {
		m[w.Name] = w
	}
	return m
}()

// ByName returns the workload with the given name, or false.
func ByName(name string) (Workload, bool) {
	w, ok := byName[name]
	return w, ok
}
