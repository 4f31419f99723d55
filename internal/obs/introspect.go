package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"baryon/internal/sim"
)

// RunStatus is an immutable point-in-time view of a running simulation,
// published by the run goroutine and read by HTTP handlers. Because the
// sim.Stats registry is per-run and not goroutine-safe, handlers never touch
// live registry state: they only see these published copies.
type RunStatus struct {
	Workload       string    `json:"workload"`
	Design         string    `json:"design"`
	Seed           uint64    `json:"seed"`
	TargetAccesses uint64    `json:"targetAccesses"`
	Accesses       uint64    `json:"accesses"`
	Instructions   uint64    `json:"instructions"`
	Cycles         uint64    `json:"cycles"`
	CoreClocks     []uint64  `json:"coreClocks"`
	Phase          string    `json:"phase"` // "warmup" or "measure"
	UpdatedAt      time.Time `json:"updatedAt"`
	// Snap is the registry snapshot both /metrics and /runz render. During
	// the measurement phase it is the delta since the warmup boundary, so
	// neither conflates warmup transients with measured metrics. Excluded
	// from JSON: expvar carries the progress fields above, and metric
	// values are read from /metrics.
	Snap sim.Snapshot `json:"-"`
}

// Introspector publishes RunStatus snapshots from the run goroutine and
// hands the latest one to any number of concurrent readers.
type Introspector struct {
	latest atomic.Pointer[RunStatus]
}

// Publish installs st as the latest status. Called from the run goroutine.
func (in *Introspector) Publish(st *RunStatus) { in.latest.Store(st) }

// Latest returns the most recently published status, or nil before the
// first publish. The returned value is immutable; do not modify it.
func (in *Introspector) Latest() *RunStatus { return in.latest.Load() }

// expvarIntro is the Introspector behind the process-wide "baryon.run"
// expvar. expvar.Publish is once-per-process (republishing panics), so the
// published Func reads this atomic pointer instead of closing over one
// Introspector: every NewDebugMux call swaps in its own Introspector, and
// /debug/vars always serves the newest run. Before the fix, "baryon.run"
// was bound to the first Introspector ever passed to NewDebugMux and later
// muxes in the same process served a stale run forever.
var (
	expvarOnce  sync.Once
	expvarIntro atomic.Pointer[Introspector]
)

// NewDebugMux builds the -debug-addr HTTP handler: net/http/pprof under
// /debug/pprof/, expvar under /debug/vars (including the latest published
// run status as "baryon.run"), the OpenMetrics exposition under /metrics,
// and a human-readable /runz status page.
func NewDebugMux(in *Introspector) *http.ServeMux {
	expvarIntro.Store(in)
	expvarOnce.Do(func() {
		expvar.Publish("baryon.run", expvar.Func(func() any {
			if cur := expvarIntro.Load(); cur != nil {
				return cur.Latest()
			}
			return nil
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, in.Latest())
	})
	mux.HandleFunc("/runz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeRunz(w, in.Latest())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "baryonsim debug listener")
		fmt.Fprintln(w, "  /runz         run status")
		fmt.Fprintln(w, "  /metrics      OpenMetrics exposition")
		fmt.Fprintln(w, "  /debug/vars   expvar (includes baryon.run)")
		fmt.Fprintln(w, "  /debug/pprof/ profiling")
	})
	return mux
}

// omContentType is the OpenMetrics media type /metrics responds with.
const omContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// writeMetrics renders the latest published snapshot as OpenMetrics. Before
// the first publish it serves an empty (but valid) exposition, so scrapers
// that race the run's first progress tick see a clean document rather than
// an error.
func writeMetrics(w http.ResponseWriter, st *RunStatus) {
	w.Header().Set("Content-Type", omContentType)
	if st == nil {
		fmt.Fprintln(w, "# EOF")
		return
	}
	opts := OMOptions{Labels: []OMLabel{
		{Key: "design", Value: st.Design},
		{Key: "workload", Value: st.Workload},
		{Key: "seed", Value: strconv.FormatUint(st.Seed, 10)},
	}}
	if err := WriteOpenMetrics(w, st.Snap, opts); err != nil {
		// The exposition is already partially written; nothing better to do
		// than note it (broken pipe from an impatient scraper, usually).
		fmt.Fprintf(w, "# rendering error: %v\n", err)
	}
}

func writeRunz(w http.ResponseWriter, st *RunStatus) {
	if st == nil {
		fmt.Fprintln(w, "no run status published yet")
		return
	}
	fmt.Fprintf(w, "workload %s  design %s  phase %s  updated %s\n",
		st.Workload, st.Design, st.Phase, st.UpdatedAt.Format(time.RFC3339))
	pct := 0.0
	if st.TargetAccesses > 0 {
		pct = 100 * float64(st.Accesses) / float64(st.TargetAccesses)
	}
	fmt.Fprintf(w, "progress %d / %d accesses (%.1f%%)  %d instructions  %d cycles\n\n",
		st.Accesses, st.TargetAccesses, pct, st.Instructions, st.Cycles)
	fmt.Fprintln(w, "per-core clocks:")
	for i, c := range st.CoreClocks {
		fmt.Fprintf(w, "  core %d  %d\n", i, c)
	}
	sn := st.Snap
	if names := sn.HistNames(); len(names) > 0 {
		fmt.Fprintln(w, "\nlatency histograms (cycles):")
		for _, name := range names {
			h, _ := sn.Hist(name)
			fmt.Fprintf(w, "  %-28s %s\n", name, h.Summary())
		}
	}
	if names := sn.CounterNames(); len(names) > 0 {
		fmt.Fprintln(w, "\ncounters:")
		for _, name := range names {
			fmt.Fprintf(w, "  %-36s %d\n", name, sn.Get(name))
		}
	}
	if names := sn.FloatNames(); len(names) > 0 {
		fmt.Fprintln(w, "\nfloat accumulators:")
		for _, name := range names {
			fmt.Fprintf(w, "  %-36s %.3f\n", name, sn.GetFloat(name))
		}
	}
}
