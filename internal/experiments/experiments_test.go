package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell finds the row whose first column equals label and returns column
// idx.
func cell(t *testing.T, tab Table, label string, idx int) string {
	t.Helper()
	for _, row := range tab.Rows {
		if row[0] == label {
			return row[idx]
		}
	}
	t.Fatalf("%s: no row %q in %v", tab.ID, label, tab.Rows)
	return ""
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("not an int: %q", s)
	}
	return v
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("not a percentage: %q", s)
	}
	return v
}

func TestAllProducesTwelve(t *testing.T) {
	tabs := seed1Tables()
	if len(tabs) != 12 {
		t.Fatalf("All produced %d tables", len(tabs))
	}
	seen := map[string]bool{}
	for i, tab := range tabs {
		if tab.ID == "" || tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("table %d incomplete: %+v", i, tab)
		}
		if seen[tab.ID] {
			t.Fatalf("duplicate ID %s", tab.ID)
		}
		seen[tab.ID] = true
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"E1", "e4", "E12"} {
		if _, ok := ByID(id, 1); !ok {
			t.Fatalf("ByID(%q) not found", id)
		}
	}
	if _, ok := ByID("E99", 1); ok {
		t.Fatal("ByID accepted E99")
	}
}

func TestFprintRendersAllColumns(t *testing.T) {
	var sb strings.Builder
	tab := E4HeliumWallet()
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"E4", "438000", "500000", "62000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestE2MatchesPaperArithmetic(t *testing.T) {
	tab := E2Labor()
	if got := atoi(t, cell(t, tab, "total devices", 1)); got != 591315 {
		t.Fatalf("total devices = %d", got)
	}
	ph := atoi(t, cell(t, tab, "person-hours", 1))
	if ph < 190000 || ph > 200000 {
		t.Fatalf("person-hours = %d, paper says nearly 200,000", ph)
	}
}

func TestE4ExactPaperNumbers(t *testing.T) {
	tab := E4HeliumWallet()
	if got := cell(t, tab, "credits needed", 1); got != "438000" {
		t.Fatalf("credits = %s", got)
	}
	if got := cell(t, tab, "credits left after 50y", 1); got != "62000" {
		t.Fatalf("left = %s", got)
	}
	if got := cell(t, tab, "prepaid covers 50y", 1); got != "true" {
		t.Fatalf("covered = %s", got)
	}
}

func TestE5MatchesPaperShape(t *testing.T) {
	tab := E5BackhaulDiversity(1)
	share := parsePct(t, cell(t, tab, "top-10 AS share", 1))
	if share < 42 || share > 58 {
		t.Fatalf("top-10 share = %v%%, paper ~50%%", share)
	}
	ases := atoi(t, cell(t, tab, "unique ASes", 1))
	if ases < 170 || ases > 200 {
		t.Fatalf("unique ASes = %d, paper ~200", ases)
	}
}

func TestE6Shape(t *testing.T) {
	tab := E6SurvivalRace(1)
	// At year 30 batteries are extinct; harvesting persists.
	batt30 := atoi(t, cell(t, tab, "30.0", 1))
	harv30 := atoi(t, cell(t, tab, "30.0", 2))
	if batt30 > 10 {
		t.Fatalf("battery alive at 30y = %d of 1000", batt30)
	}
	if harv30 < 200 {
		t.Fatalf("harvesting alive at 30y = %d of 1000", harv30)
	}
	harv50 := atoi(t, cell(t, tab, "50.0", 2))
	if harv50 < 20 {
		t.Fatalf("harvesting alive at 50y = %d", harv50)
	}
}

func TestE7CrossoversOrdered(t *testing.T) {
	tab := E7TippingPoint()
	// Within a sunset cadence, doubling replacement cost must not raise
	// the tipping point. Rows are ordered replace(7500,15000,30000) x
	// sunset(8,12,20).
	tip := func(row int) int {
		return atoi(t, tab.Rows[row][2])
	}
	// sunset=8 rows: 0, 3, 6.
	if !(tip(6) <= tip(3) && tip(3) <= tip(0)) {
		t.Fatalf("tipping points not monotone in replacement cost: %d %d %d",
			tip(0), tip(3), tip(6))
	}
	// replace=15000 rows: 3, 4, 5 (sunset 8, 12, 20).
	if !(tip(3) <= tip(4) && tip(4) <= tip(5)) {
		t.Fatalf("tipping points not monotone in sunset cadence: %d %d %d",
			tip(3), tip(4), tip(5))
	}
}

func TestE8Shape(t *testing.T) {
	tab := E8FiberVsCellular(1)
	var fiberTCO, cellTCO string
	var fiberStranded, cellStranded string
	for _, row := range tab.Rows {
		if row[0] == "fiber" && row[1] == "municipal" {
			fiberTCO, fiberStranded = row[3], row[5]
		}
		if row[0] == "cellular-4g" {
			cellTCO, cellStranded = row[3], row[5]
		}
	}
	if fiberStranded != "never" {
		t.Fatalf("fiber stranded at %s", fiberStranded)
	}
	if cellStranded == "never" {
		t.Fatal("cellular never stranded")
	}
	if fiberTCO == "" || cellTCO == "" {
		t.Fatal("rows missing")
	}
}

func TestE10BothDesignsSucceed(t *testing.T) {
	if testing.Short() {
		t.Skip("50-year end-to-end run")
	}
	tab := E10FiftyYear(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		uptime := parsePct(t, row[1])
		if uptime < 95 {
			t.Fatalf("%s weekly uptime = %v%%", row[0], uptime)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tab := E11SmartTrash(1)
	// The change column for overflow and cost must be a large negative
	// percentage.
	for _, label := range []string{"overflow events/year", "collection cost"} {
		change := parsePct(t, cell(t, tab, label, 3))
		if change > -50 {
			t.Fatalf("%s change = %v%%, want a large cut", label, change)
		}
	}
}

func TestE12OpenBeatsLocked(t *testing.T) {
	tab := E12Interop(1)
	open := parsePct(t, tab.Rows[0][2])
	locked := parsePct(t, tab.Rows[1][2])
	if open <= locked*1.5 {
		t.Fatalf("open coverage %v%% should far exceed locked %v%%", open, locked)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := E6SurvivalRace(9)
	b := E6SurvivalRace(9)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatal("same seed diverged")
			}
		}
	}
}
