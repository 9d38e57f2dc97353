package census

// Prometheus text-format exposition (version 0.0.4) of a telemetry
// snapshot plus a census (each part's families are written beside its
// data), and a validator for the format so tests (and CI's golden
// check) can prove /metrics stays parseable.
//
// Output is deterministic for a given (Snapshot, Census) pair: map
// iteration is sorted, floats are rendered with strconv 'g', and no
// timestamps are emitted — Prometheus assigns scrape time.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// ContentType is the Content-Type header for the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// sample emits one sample line. labels is a flat k1, v1, k2, v2 list.
func (p *promWriter) sample(name string, value float64, labels ...string) {
	if p.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `%s="%s"`, labels[i], escapeLabel(labels[i+1]))
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(&b, " %s\n", strconv.FormatFloat(value, 'g', -1, 64))
	_, p.err = io.WriteString(p.w, b.String())
}

// WriteMetrics renders snap and each part of c in Prometheus text
// format. c may be nil (snapshot-only exposition). Returns the first
// write error.
func WriteMetrics(w io.Writer, snap telemetry.Snapshot, c *Census) error {
	p := &promWriter{w: w}

	p.header("alloc_uptime_seconds", "Seconds since the telemetry recorder was created.", "gauge")
	p.sample("alloc_uptime_seconds", float64(snap.UptimeNS)/1e9)
	p.header("alloc_threads", "Registered allocator thread handles.", "gauge")
	p.sample("alloc_threads", float64(snap.Threads))

	p.header("alloc_ops_total", "Completed allocator operations.", "counter")
	p.sample("alloc_ops_total", float64(snap.Malloc.Count), "op", "malloc")
	p.sample("alloc_ops_total", float64(snap.Free.Count), "op", "free")

	p.header("alloc_retries_total", "Failed CAS operations by retry site.", "counter")
	sites := make([]string, 0, len(snap.Retries))
	for k := range snap.Retries {
		sites = append(sites, k)
	}
	sort.Strings(sites)
	for _, k := range sites {
		p.sample("alloc_retries_total", float64(snap.Retries[k]), "site", k)
	}

	p.header("alloc_latency_ns", "Operation latency quantiles in nanoseconds.", "gauge")
	for _, row := range []struct {
		op string
		h  telemetry.HistSummary
	}{{"malloc", snap.Malloc}, {"free", snap.Free}} {
		p.sample("alloc_latency_ns", float64(row.h.P50NS), "op", row.op, "quantile", "0.5")
		p.sample("alloc_latency_ns", float64(row.h.P90NS), "op", row.op, "quantile", "0.9")
		p.sample("alloc_latency_ns", float64(row.h.P99NS), "op", row.op, "quantile", "0.99")
	}

	if c != nil {
		for _, part := range c.Parts {
			part.writeMetrics(p)
		}
	}
	return p.err
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateMetrics checks that b is well-formed Prometheus text format
// (the subset WriteMetrics emits): every sample's metric has a # TYPE
// declared first (histogram series map to their base name), names and
// labels are syntactically valid, values parse as floats, no duplicate
// (name, labelset) pairs, and histogram le buckets are cumulative and
// end at +Inf. Used by the golden test and CI to keep /metrics
// scrapeable.
func ValidateMetrics(b []byte) error {
	types := make(map[string]string) // metric name -> type
	seen := make(map[string]bool)    // name{labels} dedup
	hist := make(map[string]*histCheck)

	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line[len("# TYPE "):])
			if len(fields) != 2 {
				return fmt.Errorf("line %d: malformed TYPE line", lineno)
			}
			name, typ := fields[0], fields[1]
			if !metricNameRe.MatchString(name) {
				return fmt.Errorf("line %d: invalid metric name %q", lineno, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: invalid metric type %q", lineno, typ)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %q", lineno, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: unknown comment form %q", lineno, line)
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineno, err)
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && types[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		typ, ok := types[base]
		if !ok {
			return fmt.Errorf("line %d: sample %q precedes its TYPE declaration", lineno, name)
		}
		key := name + "{" + strings.Join(labels, ",") + "}"
		if seen[key] {
			return fmt.Errorf("line %d: duplicate sample %s", lineno, key)
		}
		seen[key] = true
		if typ == "histogram" {
			hc := hist[base]
			if hc == nil {
				hc = &histCheck{}
				hist[base] = hc
			}
			hc.note(name, base, labels, value)
			if hc.err != nil {
				return fmt.Errorf("line %d: %v", lineno, hc.err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, hc := range hist {
		if hc.buckets > 0 && !hc.sawInf {
			return fmt.Errorf("histogram %s: bucket series does not end with le=\"+Inf\"", name)
		}
	}
	return nil
}

type histCheck struct {
	buckets int
	lastLe  float64
	lastCum float64
	sawInf  bool
	err     error
}

func (hc *histCheck) note(name, base string, labels []string, value float64) {
	if !strings.HasSuffix(name, "_bucket") {
		return
	}
	le := ""
	for _, l := range labels {
		if v, ok := strings.CutPrefix(l, `le="`); ok {
			le = strings.TrimSuffix(v, `"`)
		}
	}
	if le == "" {
		hc.err = fmt.Errorf("histogram %s: bucket without le label", base)
		return
	}
	var bound float64
	if le == "+Inf" {
		hc.sawInf = true
		bound = 0
	} else {
		var err error
		bound, err = strconv.ParseFloat(le, 64)
		if err != nil {
			hc.err = fmt.Errorf("histogram %s: bad le %q", base, le)
			return
		}
		if hc.sawInf {
			hc.err = fmt.Errorf("histogram %s: bucket after le=\"+Inf\"", base)
			return
		}
		if hc.buckets > 0 && bound <= hc.lastLe {
			hc.err = fmt.Errorf("histogram %s: le bounds not increasing (%g after %g)", base, bound, hc.lastLe)
			return
		}
		hc.lastLe = bound
	}
	if hc.buckets > 0 && value < hc.lastCum {
		hc.err = fmt.Errorf("histogram %s: bucket counts not cumulative (%g after %g)", base, value, hc.lastCum)
		return
	}
	hc.lastCum = value
	hc.buckets++
}

// parseSample splits a sample line into name, labels (as k="v" strings
// in order), and value.
func parseSample(line string) (name string, labels []string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		labels, err = parseLabels(rest[brace+1 : end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("no value in %q", line)
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !metricNameRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	value, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("invalid value %q: %v", rest, err)
	}
	return name, labels, value, nil
}

// parseLabels scans a comma-separated k="v" list, honoring escapes
// inside quoted values.
func parseLabels(s string) ([]string, error) {
	var out []string
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", s)
		}
		key := s[i : i+eq]
		if !labelNameRe.MatchString(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", s)
		}
		j := i + 1
		for j < len(s) {
			if s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == '"' {
				break
			}
			j++
		}
		if j >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out = append(out, key+"="+s[i:j+1])
		i = j + 1
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' between labels in %q", s)
			}
			i++
		}
	}
	return out, nil
}
