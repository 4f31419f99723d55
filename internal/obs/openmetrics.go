package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"baryon/internal/sim"
)

// OpenMetrics export of a run's metric registry. The renderer turns an
// immutable sim.Snapshot — counters, float accumulators, gauges and
// histograms — into OpenMetrics text (the Prometheus exposition format's
// standardised successor): counters become `<name>_total` counter families,
// gauges unsuffixed gauge families, histograms cumulative
// `_bucket`/`_sum`/`_count` families. Device-scoped
// metrics ("DDR4-3200.bytesRead") are folded into shared families with a
// `tier` label, so a multi-tier run exposes one `baryon_device_bytesRead`
// family with one series per device instead of one family per device name.
//
// Rendering reads only the snapshot, never a live registry, so it follows
// the package's concurrency contract for free: the run goroutine publishes
// snapshots, HTTP handlers render them.

// OMLabel is one key=value label stamped on every rendered sample (run
// identity: design, workload, seed).
type OMLabel struct {
	Key, Value string
}

// OMOptions configures one OpenMetrics rendering.
type OMOptions struct {
	// Labels are stamped on every sample, in the given order, before any
	// per-metric labels (tier). Keys must be valid label names.
	Labels []OMLabel
}

// omNamePrefix namespaces every exported family.
const omNamePrefix = "baryon_"

// omDeviceScopes returns the set of device-name scopes in the snapshot: any
// prefix P with a "P.bytesRead" counter is a device (every mem.Device
// registers that counter at construction).
func omDeviceScopes(snap sim.Snapshot) map[string]bool {
	scopes := map[string]bool{}
	for _, name := range snap.CounterNames() {
		if rest, ok := strings.CutSuffix(name, ".bytesRead"); ok && rest != "" && !strings.Contains(rest, ".") {
			scopes[rest] = true
		}
	}
	return scopes
}

// omSplit maps a registry name to its OpenMetrics family and tier label:
// device-scoped names lose their device prefix to the tier label and gain a
// "device_" family prefix; everything else keeps its full name.
func omSplit(name string, devices map[string]bool) (family, tier string) {
	if dev, rest, ok := strings.Cut(name, "."); ok && devices[dev] {
		return "device_" + rest, dev
	}
	return name, ""
}

// omSanitize rewrites a registry name into a legal OpenMetrics metric or
// label name: every character outside [a-zA-Z0-9_] becomes '_'.
func omSanitize(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// omEscape escapes a label value per the OpenMetrics ABNF.
func omEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// omLabels renders the full label block for one sample: the run-identity
// labels, the optional tier label, and any extra labels (le).
func omLabels(opts OMOptions, tier string, extra ...OMLabel) string {
	var parts []string
	for _, l := range opts.Labels {
		parts = append(parts, fmt.Sprintf("%s=%q", l.Key, omEscape(l.Value)))
	}
	if tier != "" {
		parts = append(parts, fmt.Sprintf("tier=%q", omEscape(tier)))
	}
	for _, l := range extra {
		parts = append(parts, fmt.Sprintf("%s=%q", l.Key, omEscape(l.Value)))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// omSeries is one rendered series of a family (one tier, or the unscoped
// series).
type omSeries struct {
	tier string
	name string // original registry name, to read the snapshot
}

// omFamily groups the series that share one sanitized family name.
type omFamily struct {
	family string
	series []omSeries
}

// omGroup buckets registry names into deterministic family order: families
// sorted by name, series within a family sorted by tier.
func omGroup(names []string, devices map[string]bool) []omFamily {
	byFamily := map[string][]omSeries{}
	for _, name := range names {
		fam, tier := omSplit(name, devices)
		fam = omSanitize(fam)
		byFamily[fam] = append(byFamily[fam], omSeries{tier: tier, name: name})
	}
	fams := make([]omFamily, 0, len(byFamily))
	for fam, series := range byFamily {
		sort.Slice(series, func(i, j int) bool { return series[i].tier < series[j].tier })
		fams = append(fams, omFamily{family: fam, series: series})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].family < fams[j].family })
	return fams
}

// WriteOpenMetrics renders the snapshot as an OpenMetrics text exposition:
// counter and float-accumulator families first (both are monotone within a
// window, so both render as counters), then unsuffixed gauge families, then
// histogram families with cumulative buckets, closed by the mandatory
// "# EOF" terminator. Output is deterministic: families and series are
// sorted, floats use the shortest round-trip encoding.
func WriteOpenMetrics(w io.Writer, snap sim.Snapshot, opts OMOptions) error {
	bw := bufio.NewWriter(w)
	devices := omDeviceScopes(snap)

	for _, fam := range omGroup(snap.CounterNames(), devices) {
		name := omNamePrefix + fam.family
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		for _, s := range fam.series {
			fmt.Fprintf(bw, "%s_total%s %d\n", name, omLabels(opts, s.tier), snap.Get(s.name))
		}
	}
	for _, fam := range omGroup(snap.FloatNames(), devices) {
		name := omNamePrefix + fam.family
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		for _, s := range fam.series {
			fmt.Fprintf(bw, "%s_total%s %s\n", name, omLabels(opts, s.tier),
				strconv.FormatFloat(snap.GetFloat(s.name), 'g', -1, 64))
		}
	}
	for _, fam := range omGroup(snap.GaugeNames(), devices) {
		name := omNamePrefix + fam.family
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		for _, s := range fam.series {
			fmt.Fprintf(bw, "%s%s %d\n", name, omLabels(opts, s.tier), snap.GetGauge(s.name))
		}
	}
	var buckets []sim.CumBucket
	for _, fam := range omGroup(snap.HistNames(), devices) {
		name := omNamePrefix + fam.family
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		for _, s := range fam.series {
			h, ok := snap.Hist(s.name)
			if !ok {
				continue
			}
			buckets = h.CumBuckets(buckets[:0])
			for _, b := range buckets {
				fmt.Fprintf(bw, "%s_bucket%s %d\n", name,
					omLabels(opts, s.tier, OMLabel{"le", strconv.FormatUint(b.Le, 10)}), b.Cum)
			}
			fmt.Fprintf(bw, "%s_bucket%s %d\n", name,
				omLabels(opts, s.tier, OMLabel{"le", "+Inf"}), h.Count())
			fmt.Fprintf(bw, "%s_sum%s %d\n", name, omLabels(opts, s.tier), h.Sum())
			fmt.Fprintf(bw, "%s_count%s %d\n", name, omLabels(opts, s.tier), h.Count())
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// --- Validator -----------------------------------------------------------
//
// LintOpenMetrics is the in-repo OpenMetrics validator behind cmd/omlint
// and `make metrics-smoke`. It checks the structural subset of the spec the
// exporter relies on — enough to catch every rendering bug that would break
// a real Prometheus scrape — without pulling in an external dependency:
//
//   - the exposition ends with exactly one "# EOF" line, nothing after;
//   - metric and label names match the OpenMetrics ABNF;
//   - every sample belongs to a family declared by a preceding # TYPE line,
//     with the suffix its type demands (_total for counters;
//     _bucket/_sum/_count for histograms);
//   - a family's lines are contiguous and its TYPE is declared once;
//   - sample values parse as numbers;
//   - histogram buckets per series are cumulative: le strictly increasing,
//     counts non-decreasing, a +Inf bucket present and consistent with
//     _count.

type omLinter struct {
	types     map[string]string // family -> type
	closed    map[string]bool   // families whose block has ended
	current   string            // family of the contiguous block being read
	histState map[string]*omHistSeries
	families  int
	samples   int
}

// omHistSeries tracks one histogram series (family + labelset minus le)
// across its bucket lines.
type omHistSeries struct {
	lastLe   float64
	haveLe   bool
	lastCum  float64
	infCum   float64
	haveInf  bool
	count    float64
	haveCnt  bool
	haveSum  bool
	lastLine int
}

var omNameRe = "must match [a-zA-Z_:][a-zA-Z0-9_:]*"

func omValidName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// omParseLabels parses a "{k=\"v\",...}" block, returning the labels and the
// remainder of the line (the value).
func omParseLabels(s string) (labels []OMLabel, rest string, err error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	s = s[1:]
	for {
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		key := s[:eq]
		if !omValidName(key) || strings.Contains(key, ":") {
			return nil, "", fmt.Errorf("bad label name %q", key)
		}
		s = s[eq+1:]
		if s == "" || s[0] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("unterminated value for label %q", key)
			}
			c := s[0]
			if c == '"' {
				s = s[1:]
				break
			}
			if c == '\\' {
				if len(s) < 2 {
					return nil, "", fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %q", s[1], key)
				}
				s = s[2:]
				continue
			}
			val.WriteByte(c)
			s = s[1:]
		}
		labels = append(labels, OMLabel{Key: key, Value: val.String()})
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		}
	}
}

// omFamilyOf resolves a sample name to (family, suffix) given the declared
// types: "x_total" belongs to counter family "x", "x_bucket"/"x_sum"/
// "x_count" to histogram family "x".
func (l *omLinter) omFamilyOf(sample string) (family, suffix string, err error) {
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count"} {
		if fam, ok := strings.CutSuffix(sample, suf); ok {
			if _, declared := l.types[fam]; declared {
				return fam, suf, nil
			}
		}
	}
	if _, declared := l.types[sample]; declared {
		return sample, "", nil
	}
	return "", "", fmt.Errorf("sample %q matches no declared metric family", sample)
}

func (l *omLinter) enterFamily(fam string, line int) error {
	if l.current == fam {
		return nil
	}
	if l.current != "" {
		l.closed[l.current] = true
	}
	if l.closed[fam] {
		return fmt.Errorf("line %d: family %q interleaved with other families", line, fam)
	}
	l.current = fam
	return nil
}

func (l *omLinter) sample(line int, text string) error {
	nameEnd := strings.IndexAny(text, "{ ")
	if nameEnd < 0 {
		return fmt.Errorf("line %d: sample %q has no value", line, text)
	}
	name := text[:nameEnd]
	if !omValidName(name) {
		return fmt.Errorf("line %d: metric name %q invalid (%s)", line, name, omNameRe)
	}
	labels, rest, err := omParseLabels(text[nameEnd:])
	if err != nil {
		return fmt.Errorf("line %d: %v", line, err)
	}
	rest = strings.TrimPrefix(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return fmt.Errorf("line %d: sample %q has no value", line, name)
	}
	val, err := strconv.ParseFloat(fields[0], 64)
	if err != nil && fields[0] != "+Inf" && fields[0] != "-Inf" && fields[0] != "NaN" {
		return fmt.Errorf("line %d: value %q does not parse: %v", line, fields[0], err)
	}
	fam, suffix, err := l.omFamilyOf(name)
	if err != nil {
		return fmt.Errorf("line %d: %v", line, err)
	}
	if err := l.enterFamily(fam, line); err != nil {
		return err
	}
	l.samples++
	typ := l.types[fam]
	switch typ {
	case "counter":
		if suffix != "_total" {
			return fmt.Errorf("line %d: counter sample %q must use the _total suffix", line, name)
		}
		if val < 0 {
			return fmt.Errorf("line %d: counter %q has negative value %v", line, name, val)
		}
	case "histogram":
		key := fam + omSeriesKey(labels)
		hs := l.histState[key]
		if hs == nil {
			hs = &omHistSeries{}
			l.histState[key] = hs
		}
		hs.lastLine = line
		switch suffix {
		case "_bucket":
			le, ok := omFindLabel(labels, "le")
			if !ok {
				return fmt.Errorf("line %d: histogram bucket %q lacks an le label", line, name)
			}
			if le == "+Inf" {
				hs.haveInf = true
				hs.infCum = val
				if val < hs.lastCum {
					return fmt.Errorf("line %d: +Inf bucket of %q below earlier cumulative count", line, name)
				}
				break
			}
			leV, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("line %d: bucket le %q does not parse", line, le)
			}
			if hs.haveInf {
				return fmt.Errorf("line %d: bucket after +Inf in %q", line, name)
			}
			if hs.haveLe && leV <= hs.lastLe {
				return fmt.Errorf("line %d: bucket le %v not increasing (last %v)", line, leV, hs.lastLe)
			}
			if val < hs.lastCum {
				return fmt.Errorf("line %d: cumulative bucket count %v decreases (last %v)", line, val, hs.lastCum)
			}
			hs.lastLe, hs.haveLe, hs.lastCum = leV, true, val
		case "_sum":
			hs.haveSum = true
		case "_count":
			hs.count, hs.haveCnt = val, true
		default:
			return fmt.Errorf("line %d: histogram sample %q needs a _bucket/_sum/_count suffix", line, name)
		}
	default:
		if suffix != "" {
			return fmt.Errorf("line %d: %s sample %q must not use suffix %s", line, typ, name, suffix)
		}
	}
	return nil
}

func omSeriesKey(labels []OMLabel) string {
	var parts []string
	for _, l := range labels {
		if l.Key == "le" {
			continue
		}
		parts = append(parts, l.Key+"="+l.Value)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

func omFindLabel(labels []OMLabel, key string) (string, bool) {
	for _, l := range labels {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

// LintOpenMetrics validates an OpenMetrics exposition (see the checklist
// above). It returns the first violation found, or nil for a clean
// document. The error messages carry 1-based line numbers.
func LintOpenMetrics(r io.Reader) error {
	l := &omLinter{
		types:     map[string]string{},
		closed:    map[string]bool{},
		histState: map[string]*omHistSeries{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	sawEOF := false
	for sc.Scan() {
		line++
		text := sc.Text()
		if sawEOF {
			return fmt.Errorf("line %d: content after # EOF", line)
		}
		switch {
		case text == "# EOF":
			sawEOF = true
		case strings.HasPrefix(text, "# TYPE "):
			fields := strings.Fields(text[len("# TYPE "):])
			if len(fields) != 2 {
				return fmt.Errorf("line %d: malformed TYPE line", line)
			}
			fam, typ := fields[0], fields[1]
			if !omValidName(fam) {
				return fmt.Errorf("line %d: family name %q invalid (%s)", line, fam, omNameRe)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "unknown", "info", "stateset", "gaugehistogram":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", line, typ)
			}
			if _, dup := l.types[fam]; dup {
				return fmt.Errorf("line %d: family %q declared twice", line, fam)
			}
			l.types[fam] = typ
			l.families++
			if err := l.enterFamily(fam, line); err != nil {
				return err
			}
		case strings.HasPrefix(text, "# HELP "), strings.HasPrefix(text, "# UNIT "):
			// Metadata lines: accepted, not cross-checked.
		case strings.HasPrefix(text, "#"):
			return fmt.Errorf("line %d: unknown comment directive %q", line, text)
		case strings.TrimSpace(text) == "":
			return fmt.Errorf("line %d: blank lines are not allowed", line)
		default:
			if err := l.sample(line, text); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawEOF {
		return fmt.Errorf("exposition does not end with # EOF")
	}
	for key, hs := range l.histState {
		if !hs.haveInf {
			return fmt.Errorf("line %d: histogram series %s has no +Inf bucket", hs.lastLine, key)
		}
		if !hs.haveCnt || !hs.haveSum {
			return fmt.Errorf("line %d: histogram series %s lacks _sum/_count", hs.lastLine, key)
		}
		if hs.infCum != hs.count {
			return fmt.Errorf("line %d: histogram series %s +Inf bucket %v != _count %v",
				hs.lastLine, key, hs.infCum, hs.count)
		}
	}
	if l.families == 0 && l.samples == 0 {
		return nil // an empty exposition (just # EOF) is legal
	}
	return nil
}
