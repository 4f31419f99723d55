package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"baryon/internal/datagen"
)

// Streamer produces one core's access sequence. *Stream (the synthetic
// generator) and replay cursors both implement it.
type Streamer interface {
	Next() Access
}

// Source provides per-core access streams plus the value mix the canonical
// store should be filled with. Workload is the synthetic implementation;
// Replay feeds recorded traces, so real application traces (or dumps from
// cmd/tracegen) can drive every controller in this repository.
type Source interface {
	SourceName() string
	ValueMix() datagen.Mix
	Streams(cores int, fastBlocks uint64, seed uint64) []Streamer
}

// SourceName implements Source for Workload.
func (w Workload) SourceName() string { return w.Name }

// ValueMix implements Source for Workload.
func (w Workload) ValueMix() datagen.Mix { return w.Mix }

// Streams implements Source for Workload.
func (w Workload) Streams(cores int, fastBlocks uint64, seed uint64) []Streamer {
	out := make([]Streamer, cores)
	for c := 0; c < cores; c++ {
		out[c] = w.NewStream(c, fastBlocks, seed)
	}
	return out
}

// Replay is a recorded trace: per-core access sequences replayed verbatim
// (wrapping around when a core's records run out).
type Replay struct {
	Name string
	Mix  datagen.Mix
	// PerCore holds each core's recorded accesses; cores beyond the
	// recorded set replay existing cores round-robin.
	PerCore [][]Access
}

// SourceName implements Source.
func (r *Replay) SourceName() string { return r.Name }

// ValueMix implements Source.
func (r *Replay) ValueMix() datagen.Mix { return r.Mix }

// Streams implements Source.
func (r *Replay) Streams(cores int, _ uint64, _ uint64) []Streamer {
	out := make([]Streamer, cores)
	for c := 0; c < cores; c++ {
		recs := r.PerCore[c%len(r.PerCore)]
		out[c] = &replayCursor{recs: recs}
	}
	return out
}

type replayCursor struct {
	recs []Access
	pos  int
}

// Next implements Streamer, wrapping at the end of the recording.
func (rc *replayCursor) Next() Access {
	if len(rc.recs) == 0 {
		return Access{Gap: 1}
	}
	a := rc.recs[rc.pos]
	rc.pos = (rc.pos + 1) % len(rc.recs)
	return a
}

// The trace-file format is one record per line:
//
//	<core> <R|W> <hex-address> <gap>
//
// with '#' comment lines ignored. cmd/tracegen -replay emits it and
// ParseReplay consumes it, so external tools only need to print four fields.

// WriteReplayRecord formats one record line.
func WriteReplayRecord(w io.Writer, core int, a Access) error {
	op := "R"
	if a.Write {
		op = "W"
	}
	_, err := fmt.Fprintf(w, "%d %s 0x%x %d\n", core, op, a.Addr, a.Gap)
	return err
}

// ParseReplay reads a trace file into a Replay with the given value mix.
func ParseReplay(r io.Reader, name string, mix datagen.Mix) (*Replay, error) {
	perCore := map[int][]Access{}
	maxCore := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		core, err := strconv.Atoi(fields[0])
		if err != nil || core < 0 {
			return nil, fmt.Errorf("trace: line %d: bad core %q", lineNo, fields[0])
		}
		var write bool
		switch fields[1] {
		case "R", "r":
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[1])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[2])
		}
		gap, err := strconv.ParseUint(fields[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad gap %q", lineNo, fields[3])
		}
		perCore[core] = append(perCore[core], Access{Addr: addr, Write: write, Gap: uint32(gap)})
		if core > maxCore {
			maxCore = core
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxCore < 0 {
		return nil, fmt.Errorf("trace: no records")
	}
	rep := &Replay{Name: name, Mix: mix}
	for c := 0; c <= maxCore; c++ {
		if len(perCore[c]) == 0 {
			return nil, fmt.Errorf("trace: core %d has no records", c)
		}
		rep.PerCore = append(rep.PerCore, perCore[c])
	}
	return rep, nil
}

// LoadReplayFile reads a trace file from disk and fills the store with the
// value mix of values. The replay is named after what runs, not where the
// file lives: "trace-<hex>+<workload>", where <hex> is the first 12 hex
// digits of the SHA-256 of the file's bytes. The same trace under two paths
// gets one name, and two value mixes get two.
func LoadReplayFile(path string, values Workload) (*Replay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	name := fmt.Sprintf("trace-%x+%s", sum[:6], values.Name)
	return ParseReplay(bytes.NewReader(data), name, values.Mix)
}
