package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is written by hand; the tables in main.go and trace.go
// are what the program prints. They must say the same.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	if !reflect.DeepEqual(s.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json  %+v\n table %+v", s.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer) {
		t.Errorf("per_layer differs: json has %d metrics, table %d", len(s.PerLayer), len(perLayer))
		for i := 0; i < min(len(s.PerLayer), len(perLayer)); i++ {
			if s.PerLayer[i] != perLayer[i] {
				t.Errorf("  first difference at %d: json %+v, table %+v", i, s.PerLayer[i], perLayer[i])
				break
			}
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("workloads: json has %d, program %d", len(s.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if s.Workloads[i].Name != wl.name || s.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: json %+v, program {%s %s}", i, s.Workloads[i], wl.name, wl.why)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(s.PerLayer) > 128 || len(s.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(s.EndToEnd), len(s.PerLayer))
	}
}

// runBench runs the command in-process and decodes its last line.
func runBench(t *testing.T, args ...string) (code int, rep report, human string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code = run(append(args, "-out", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("exit %d, last line is not the report: %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	return code, rep, stdout.String()
}

// checkMetrics asserts that the report holds exactly the wanted metrics
// with finite values and that each was printed once in the tables.
func checkMetrics(t *testing.T, rep report, human string, want []metric) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("report has %d metrics, want %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: missing from the report", m.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
			t.Errorf("%s = %v %q, want a finite value in %q", m.Name, v.Value, v.Unit, m.Unit)
		}
		printed := regexp.MustCompile(`(?m)^\s+`+regexp.QuoteMeta(m.Name)+`\s`).FindAllString(human, -1)
		if len(printed) != 1 {
			t.Errorf("%s: printed %d times in the tables, want once", m.Name, len(printed))
		}
	}
}

func TestEndToEndSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			code, rep, human := runBench(t, "-workload", wl.name, "-rounds", "2", "-seconds", "0.1")
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("exit %d, report %+v\n%s", code, rep, human)
			}
			checkMetrics(t, rep, human, endToEnd)
			for _, m := range endToEnd {
				if rep.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, rep.Metrics[m.Name].Value)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	code, rep, human := runBench(t, "-workload", "churn", "-trace", "1", "-seconds", "0.75")
	if code != 0 || !rep.Correct || rep.Failed != 0 {
		t.Fatalf("exit %d, report correct=%v failed=%d\n%s", code, rep.Correct, rep.Failed, human)
	}
	checkMetrics(t, rep, human, perLayer)
	if _, err := os.Stat(traceFileIn(human)); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// traceFileIn extracts the span file's path from the traced output.
func traceFileIn(human string) string {
	m := regexp.MustCompile(`written to (\S+)`).FindStringSubmatch(human)
	if m == nil {
		return ""
	}
	return m[1]
}

// The checks must be able to fail: a block that reads back wrong and a
// block that is never freed each fail units and the process.
func TestInjectedFaultsAreCaught(t *testing.T) {
	for _, wl := range workloads {
		for _, fault := range []string{"canary", "leak"} {
			t.Run(wl.name+"/"+fault, func(t *testing.T) {
				code, rep, human := runBench(t, "-workload", wl.name, "-rounds", "1", "-seconds", "0.05", "-fault", fault)
				if code == 0 || rep.Correct || rep.Failed == 0 {
					t.Errorf("fault went unnoticed: exit %d, correct=%v, failed=%d of %d\n%s", code, rep.Correct, rep.Failed, rep.Attempted, human)
				}
			})
		}
	}
}

// churn runs on one thread, so its counter deltas are a function of the
// seed alone: that is what lets a later change quote them as evidence.
func TestChurnCountsRepeat(t *testing.T) {
	counts := func() map[string]float64 {
		cfg := passConfig{wl: findWorkload("churn"), seed: 1, threads: 1, rounds: 1, units: 1 << 16, telemetry: true}
		p, err := runPass(&cfg)
		if err != nil || p.failed != 0 {
			t.Fatalf("count pass: err=%v failed=%d", err, p.failed)
		}
		return countMetrics(&p.rounds[0])
	}
	if a, b := counts(), counts(); !reflect.DeepEqual(a, b) {
		t.Errorf("two count passes with the same seed differ:\n%v\n%v", a, b)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
}
