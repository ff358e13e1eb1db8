package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListAnalyzers pins the suite size and order-stability of -list:
// eleven analyzers, waiveraudit last.
func TestListAnalyzers(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("-list printed %d analyzers, want 11:\n%s", len(lines), out.String())
	}
	wantOrder := []string{
		"simdeterminism", "lockedio", "syncerr", "seedflow",
		"centurytime", "goroleak", "ctxflow",
		"lockorder", "atomicmix", "lifecycle",
		"waiveraudit",
	}
	for i, name := range wantOrder {
		if !strings.HasPrefix(lines[i], name) {
			t.Errorf("line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

// TestReportGolden pins the -json / baseline byte format: sorted
// findings, two-space indent, version header, [] (not null) when empty.
func TestReportGolden(t *testing.T) {
	scrambled := []Finding{
		{File: "b.go", Line: 9, Col: 2, Analyzer: "goroleak", Message: "m2"},
		{File: "a.go", Line: 20, Col: 1, Analyzer: "lockedio", Message: "m1"},
		{File: "a.go", Line: 3, Col: 7, Analyzer: "ctxflow", Message: "m0"},
		{File: "a.go", Line: 3, Col: 7, Analyzer: "centurytime", Message: "m3"},
	}
	sortFindings(scrambled)
	var buf bytes.Buffer
	if err := writeReport(&buf, scrambled, nil, nil); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "version": 1,
  "findings": [
    {
      "file": "a.go",
      "line": 3,
      "col": 7,
      "analyzer": "centurytime",
      "message": "m3"
    },
    {
      "file": "a.go",
      "line": 3,
      "col": 7,
      "analyzer": "ctxflow",
      "message": "m0"
    },
    {
      "file": "a.go",
      "line": 20,
      "col": 1,
      "analyzer": "lockedio",
      "message": "m1"
    },
    {
      "file": "b.go",
      "line": 9,
      "col": 2,
      "analyzer": "goroleak",
      "message": "m2"
    }
  ]
}
`
	if buf.String() != want {
		t.Errorf("report bytes changed:\n got: %q\nwant: %q", buf.String(), want)
	}

	buf.Reset()
	if err := writeReport(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	const wantEmpty = "{\n  \"version\": 1,\n  \"findings\": []\n}\n"
	if buf.String() != wantEmpty {
		t.Errorf("empty report = %q, want %q", buf.String(), wantEmpty)
	}

	// Notes ride along with omitempty: present on partial runs, absent —
	// and therefore byte-identical to the old format — in baselines.
	buf.Reset()
	if err := writeReport(&buf, nil, []string{"a.go: waiver staleness not evaluated"}, nil); err != nil {
		t.Fatal(err)
	}
	const wantNotes = "{\n  \"version\": 1,\n  \"findings\": [],\n  \"notes\": [\n    \"a.go: waiver staleness not evaluated\"\n  ]\n}\n"
	if buf.String() != wantNotes {
		t.Errorf("notes report = %q, want %q", buf.String(), wantNotes)
	}

	// Timings ride along the same way: present on -json runs, absent in
	// baselines (which writeBaseline always calls with nil).
	buf.Reset()
	timings := []AnalyzerTiming{{Analyzer: "lockedio", Micros: 1200}, {Analyzer: "syncerr", Micros: 40}}
	if err := writeReport(&buf, nil, nil, timings); err != nil {
		t.Fatal(err)
	}
	const wantTimings = "{\n  \"version\": 1,\n  \"findings\": [],\n  \"timings\": [\n    {\n      \"analyzer\": \"lockedio\",\n      \"micros\": 1200\n    },\n    {\n      \"analyzer\": \"syncerr\",\n      \"micros\": 40\n    }\n  ]\n}\n"
	if buf.String() != wantTimings {
		t.Errorf("timings report = %q, want %q", buf.String(), wantTimings)
	}
}

// TestPartialRunWaiverNote pins the satellite contract for partial
// runs: staleness accounting is off under -only, so a run touching a
// waived file must say so in -json instead of passing for a clean full
// run. internal/daemon carries committed //lint: waivers.
func TestPartialRunWaiverNote(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-json", "-only", "syncerr", "../../internal/daemon/..."}, &out, &errOut)
	if code == 2 {
		t.Fatalf("driver error: %s", errOut.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(rep.Notes) == 0 {
		t.Fatal("no notes on a -only run over waived files; want a staleness-not-evaluated note")
	}
	for _, n := range rep.Notes {
		if !strings.Contains(n, "waiver staleness not evaluated") {
			t.Errorf("unexpected note: %q", n)
		}
	}

	// The same run over the full suite and full tree audits waivers for
	// real — no notes. (Exercised by the sweep in `make lint`; here just
	// pin that full-tree did not regress into emitting notes by checking
	// the writeBaseline path stays note-free via TestReportGolden.)
}

// TestJSONByteStableAcrossRuns drives the whole pipeline — go list,
// type-check, summary pre-pass, the full suite — twice over real
// packages and requires byte-identical -json output. -deterministic
// zeroes the per-analyzer timings, the one intentionally
// run-dependent part of the document.
func TestJSONByteStableAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	runOnce := func() (string, int) {
		var out, errOut bytes.Buffer
		code := run([]string{"-json", "-deterministic", "../../internal/sim/...", "../../internal/cloud/..."}, &out, &errOut)
		if code == 2 {
			t.Fatalf("driver error: %s", errOut.String())
		}
		return out.String(), code
	}
	first, code1 := runOnce()
	second, code2 := runOnce()
	if first != second || code1 != code2 {
		t.Errorf("output not byte-stable across runs:\n run1 (exit %d):\n%s\n run2 (exit %d):\n%s",
			code1, first, code2, second)
	}
	var rep Report
	if err := json.Unmarshal([]byte(first), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if rep.Version != 1 {
		t.Errorf("report version = %d, want 1", rep.Version)
	}
	// Every analyzer that ran appears, zeroed and therefore name-sorted.
	if len(rep.Timings) != 11 {
		t.Fatalf("timings = %+v, want 11 entries", rep.Timings)
	}
	for i, tm := range rep.Timings {
		if tm.Micros != 0 {
			t.Errorf("timings[%d].Micros = %d, want 0 under -deterministic", i, tm.Micros)
		}
		if i > 0 && rep.Timings[i-1].Analyzer > tm.Analyzer {
			t.Errorf("timings not name-sorted at %d: %q > %q", i, rep.Timings[i-1].Analyzer, tm.Analyzer)
		}
	}
}

// TestBaselineDiff exercises the multiset matching: line numbers are
// ignored, duplicate findings need duplicate entries, and entries that
// no longer fire are counted stale.
func TestBaselineDiff(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	base := Report{Version: 1, Findings: []Finding{
		{File: "a.go", Line: 10, Col: 1, Analyzer: "lockedio", Message: "m"},
		{File: "a.go", Line: 40, Col: 1, Analyzer: "lockedio", Message: "m"},
		{File: "gone.go", Line: 1, Col: 1, Analyzer: "syncerr", Message: "fixed"},
	}}
	data, _ := json.Marshal(base)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	current := []Finding{
		// Same two findings, both moved by unrelated edits.
		{File: "a.go", Line: 12, Col: 1, Analyzer: "lockedio", Message: "m"},
		{File: "a.go", Line: 44, Col: 1, Analyzer: "lockedio", Message: "m"},
		// A third copy exceeds the baseline's multiset budget.
		{File: "a.go", Line: 90, Col: 1, Analyzer: "lockedio", Message: "m"},
		// A genuinely new finding.
		{File: "b.go", Line: 5, Col: 1, Analyzer: "ctxflow", Message: "new"},
	}
	novel, stale, err := diffBaseline(path, current)
	if err != nil {
		t.Fatal(err)
	}
	if len(novel) != 2 {
		t.Fatalf("novel = %+v, want 2 entries", novel)
	}
	if novel[0].Line != 90 || novel[1].File != "b.go" {
		t.Errorf("unexpected novel findings: %+v", novel)
	}
	if stale != 1 {
		t.Errorf("stale = %d, want 1 (gone.go entry)", stale)
	}
}
