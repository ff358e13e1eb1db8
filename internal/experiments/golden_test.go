package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// The reproduction's tables at seed 1, each computed once per test run
// and shared by every test that reads them: E10, the ablations built on
// core.RunExperiment and core.RunBridge, and the migration run all drive
// cloud.Store.Ingest, so the goldens are also the widest regression net
// the datapath has.
var (
	seed1Tables    = sync.OnceValue(func() []Table { return All(1) })
	seed1Ablations = sync.OnceValue(func() []Table { return AllAblations(1) })
)

// TestGoldenTables regenerates `centurysim -experiment everything -seed 1
// -format json` and compares it, byte for byte, with the copy committed
// under testdata (generated at 2a6ddff). E1–E12 always; the ablations,
// which take half a minute, unless -short. A legitimate change to a model
// regenerates the file with that command and explains the diff.
func TestGoldenTables(t *testing.T) {
	const path = "testdata/everything-seed1.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := seed1Tables()
	if testing.Short() {
		// The golden's first twelve tables, through the same encoder: the
		// E1–E12 prefix of the file.
		var all []Table
		if err := json.Unmarshal(want, &all); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var buf bytes.Buffer
		if err := WriteAllJSON(&buf, all[:len(got)]); err != nil {
			t.Fatal(err)
		}
		want = buf.Bytes()
	} else {
		got = append(got[:len(got):len(got)], seed1Ablations()...)
	}
	var buf bytes.Buffer
	if err := WriteAllJSON(&buf, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	t.Errorf("tables at seed 1 differ from %s:\n%s", path, lineDiff(string(want), buf.String()))
}

// lineDiff renders the lines at which got departs from want, each with
// the table it belongs to, up to a screenful.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	if len(w) != len(g) {
		return fmt.Sprintf("  %d lines, want %d: a table gained or lost rows or notes", len(g), len(w))
	}
	var out strings.Builder
	table, shown := "", 0
	for i := range w {
		if id, ok := strings.CutPrefix(strings.TrimSpace(w[i]), `"id": `); ok {
			table = strings.Trim(id, `",`)
		}
		if w[i] == g[i] {
			continue
		}
		if shown++; shown > 20 {
			out.WriteString("  ...\n")
			break
		}
		fmt.Fprintf(&out, "  %s line %d: want %s, got %s\n", table, i+1, strings.TrimSpace(w[i]), strings.TrimSpace(g[i]))
	}
	return out.String()
}
