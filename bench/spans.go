package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// traceEvent is one Chrome trace_event "complete" span (ph "X") or the
// metadata event naming a process (ph "M"). Times are in microseconds.
type traceEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	TS   float64  `json:"ts"`
	Dur  float64  `json:"dur"`
	PID  int      `json:"pid"`
	TID  int      `json:"tid"`
	Args spanArgs `json:"args"`
}

// spanArgs are a span's args: the id of the op it belongs to, the name of
// the span that caused it, and what the layer call was about. A cpu.run
// span also carries the per-call Next and Access boundaries, summed.
type spanArgs struct {
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Cache  string `json:"cache,omitempty"`
	// Name names the process in the process_name metadata event.
	Name string `json:"name,omitempty"`

	TraceCalls  int64   `json:"trace.calls,omitempty"`
	TraceBusyUs float64 `json:"trace.busy_us,omitempty"`
	CtrlCalls   int64   `json:"ctrl.calls,omitempty"`
	CtrlWrites  int64   `json:"ctrl.writes,omitempty"`
	CtrlBusyUs  float64 `json:"ctrl.busy_us,omitempty"`
	SelfUs      float64 `json:"self_us,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	OtherData       struct {
		// DroppedSpans counts spans past maxSpans, recorded only as a count.
		DroppedSpans int `json:"dropped_spans"`
	} `json:"otherData"`
}

// maxSpans bounds the spans a run keeps: a traced serve-hit run makes
// about 300,000 ops, whose spans would take hundreds of MB.
const maxSpans = 100000

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	events  []traceEvent
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span records one span. The spans of one op share args.Op; args.Parent
// names the span that caused this one, empty for the op's root span.
func (r *recorder) span(name string, tid int, start time.Time, dur time.Duration, args spanArgs) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) >= maxSpans {
		r.dropped++
		return
	}
	r.events = append(r.events, traceEvent{Name: name, Ph: "X", TS: us(start.Sub(r.t0)), Dur: us(dur), PID: 1, TID: tid, Args: args})
}

// writeFile writes the spans as Chrome trace_event JSON, naming the process
// after the workload.
func (r *recorder) writeFile(path, workload string) error {
	r.mu.Lock()
	tf := traceFile{
		TraceEvents:     append([]traceEvent{{Name: "process_name", Ph: "M", PID: 1, Args: spanArgs{Name: workload}}}, r.events...),
		DisplayTimeUnit: "ms",
	}
	tf.OtherData.DroppedSpans = r.dropped
	r.mu.Unlock()
	return writeTrace(path, tf)
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// mergeTraceFiles joins the per-workload span files into one, each
// workload its own process, and deletes the parts.
func mergeTraceFiles(path string, parts []string) error {
	all := traceFile{DisplayTimeUnit: "ms"}
	for i, p := range parts {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for _, e := range tf.TraceEvents {
			e.PID = i + 1
			all.TraceEvents = append(all.TraceEvents, e)
		}
		all.OtherData.DroppedSpans += tf.OtherData.DroppedSpans
	}
	if err := writeTrace(path, all); err != nil {
		return err
	}
	for _, p := range parts {
		os.Remove(p)
	}
	return nil
}
