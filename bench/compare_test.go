package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func runsOf(workload, metric string, values ...float64) []*runResult {
	var out []*runResult
	for i, v := range values {
		out = append(out, &runResult{Workload: workload, Seed: uint64(i), Correct: true, Values: map[string]float64{metric: v}})
	}
	return out
}

func metricByName(t *testing.T, name string) metricDef {
	t.Helper()
	for _, m := range catalog {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no metric %q in the catalogue", name)
	return metricDef{}
}

func TestJudge(t *testing.T) {
	lower := metricByName(t, "ack_ms_p50") // lower is better
	higher := metricByName(t, "packets_per_s")
	setup := metricByName(t, "setup_s")
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}

	shift := func(vs []float64, by float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * by
		}
		return out
	}
	for _, c := range []struct {
		name       string
		m          metricDef
		base, cand []float64
		want       verdict
	}{
		{"identical", lower, tight, tight, unchanged},
		{"within the bound", lower, tight, shift(tight, 1+lower.Bound/2), unchanged},
		{"latency up past the bound", lower, tight, shift(tight, 1+2*lower.Bound), worse},
		{"latency down", lower, tight, shift(tight, 0.5), better},
		{"throughput down past the bound", higher, tight, shift(tight, 1-2*higher.Bound), worse},
		{"throughput up", higher, tight, shift(tight, 2), better},
		{"same median, spread wider than the bound", lower, noisy, noisy, unresolved},
		{"noisy, but every run better", lower, noisy, shift(noisy, 0.2), better},
		{"noisy and worse", lower, noisy, shift(noisy, 1.5), worse},
		{"set-up is exempt from the spread rule", setup, noisy, noisy, unchanged},
		{"set-up is not exempt from its bound", setup, noisy, shift(noisy, 1.5), worse},
	} {
		if got := judge(c.m, c.base, c.cand); got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (worse by %.3f, spreads %.3f / %.3f, bound %.2f)",
				c.name, got.Verdict, c.want, got.worseBy(), got.BaseSpread, got.NewSpread, c.m.Bound)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs []*runResult) string {
		path := filepath.Join(dir, name)
		b, err := json.Marshal(resultFile{Header: header{Commit: name}, Runs: runs})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := append(runsOf("frames_cpu", "ack_ms_p50", 1.00, 1.01, 0.99, 1.0, 1.02, 0.98),
		runsOf("aged_mixed", "ack_ms_p50", 2.0, 2.02, 1.98, 2.0, 2.01, 1.99)...)
	slower := append(runsOf("frames_cpu", "ack_ms_p50", 1.5, 1.51, 1.49, 1.5, 1.52, 1.48),
		runsOf("aged_mixed", "ack_ms_p50", 2.0, 2.02, 1.98, 2.0, 2.01, 1.99)...)

	var out bytes.Buffer
	ok, err := compareFiles(&out, write("a.json", base), write("b.json", base))
	if err != nil || !ok {
		t.Fatalf("a set compared with itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
	// One row per metric × workload, with both values and the base.
	if n := strings.Count(out.String(), "ack_ms_p50"); n != 2 {
		t.Fatalf("%d ack_ms_p50 rows, want one per workload:\n%s", n, out.String())
	}

	out.Reset()
	ok, err = compareFiles(&out, write("a.json", base), write("c.json", slower))
	if err != nil || ok {
		t.Fatalf("a 50%% regression on one workload passed: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(out.String(), string(worse)) || strings.Count(out.String(), string(unchanged)) != 1 {
		t.Fatalf("want frames_cpu WORSE and aged_mixed unchanged, each in its own row:\n%s", out.String())
	}

	bad := runsOf("frames_cpu", "ack_ms_p50", 1, 1, 1)
	bad[1].Correct = false
	if ok, _ := compareFiles(&out, write("a.json", base), write("d.json", bad)); ok {
		t.Fatal("a set with an incorrect run passed")
	}
	if _, err := compareFiles(&out, write("a.json", base), filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("a missing file must be an error")
	}
}

// The catalogue must satisfy the benchmark contract's naming rules, and
// BENCHMARK.json at the repository root must say what the code does.
func TestCatalogueAndBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range catalog {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better=%q", m.Name, m.Better)
		}
		if m.Kind == endToEnd && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if n := len(metricsOf(endToEnd)); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", n)
	}
	if n := len(metricsOf(perLayer)); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') || seen[w.Name] {
			t.Errorf("workload %q breaks the naming rules (why is %d characters)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}

	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json beside bench/: not in the repository")
	}
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the bounds were validated at %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("BENCHMARK.json paths %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d is %q, the code's is %q (or their why differs)", i, bj.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind metricKind, got []jsonMetric) {
		want := metricsOf(kind)
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d metrics of kind %d, the code reports %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("BENCHMARK.json metric %d is %+v, the code's is %s [%s] better=%s", i, g, m.Name, m.Unit, m.Better)
			}
			if kind == endToEnd && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("BENCHMARK.json bound of %s differs from the code's %v", m.Name, m.Bound)
			}
			if kind == perLayer && g.Bound != nil {
				t.Errorf("per-layer metric %s has a bound", m.Name)
			}
		}
	}
	check(endToEnd, bj.EndToEnd)
	check(perLayer, bj.PerLayer)
}
