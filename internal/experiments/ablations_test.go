package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(strings.TrimSpace(s), v)
}

func TestAllAblationsComplete(t *testing.T) {
	tabs := seed1Ablations()
	if len(tabs) != 14 {
		t.Fatalf("ablations = %d", len(tabs))
	}
	for _, tab := range tabs {
		if !strings.HasPrefix(tab.ID, "A") || len(tab.Rows) == 0 {
			t.Fatalf("ablation incomplete: %+v", tab.ID)
		}
	}
}

func TestAblationsByID(t *testing.T) {
	for _, id := range []string{"A1", "a4", "A7"} {
		if _, ok := ByID(id, 1); !ok {
			t.Fatalf("ByID(%q) not found", id)
		}
	}
}

func TestA1AirtimeDoubling(t *testing.T) {
	tab := A1LoRaSweep()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Airtime roughly doubles per SF step; range grows monotonically.
	var prevAir, prevRange float64
	for i, row := range tab.Rows {
		air := parseFloat(t, row[1])
		rng := parseFloat(t, row[4])
		if i > 0 {
			ratio := air / prevAir
			if ratio < 1.5 || ratio > 2.4 {
				t.Fatalf("airtime step ratio = %v at %s", ratio, row[0])
			}
			if rng <= prevRange {
				t.Fatalf("range not increasing at %s", row[0])
			}
		}
		prevAir, prevRange = air, rng
	}
}

func TestA2Knee(t *testing.T) {
	tab := A2StorageSizing()
	// 1 mF cannot hold a task; 10 mF and up can.
	if tab.Rows[0][2] != "false" {
		t.Fatalf("1 mF row = %v", tab.Rows[0])
	}
	for _, row := range tab.Rows[1:] {
		if row[2] != "true" {
			t.Fatalf("row %v should hold a task", row)
		}
	}
}

func TestA3UptimeImprovesWithGateways(t *testing.T) {
	tab := A3GatewayDensity(1)
	first := parsePct(t, tab.Rows[0][3])
	last := parsePct(t, tab.Rows[len(tab.Rows)-1][3])
	if last < first {
		t.Fatalf("uptime fell with more gateways: %v -> %v", first, last)
	}
}

func TestA4PolicyOrdering(t *testing.T) {
	tab := A4ReplacementPolicies(1)
	avail := map[string]float64{}
	for _, row := range tab.Rows {
		avail[row[0]] = parsePct(t, row[1])
	}
	if !(avail["none"] < avail["batch"] && avail["batch"] < avail["on-failure"]) {
		t.Fatalf("availability ordering wrong: %v", avail)
	}
}

func TestA5DensityKnee(t *testing.T) {
	tab := A5SensingDensity(1)
	first := parseFloat(t, tab.Rows[0][3])
	last := parseFloat(t, tab.Rows[len(tab.Rows)-1][3])
	if last < 0.85 || first > 0.3 {
		t.Fatalf("density study shape off: corr %v -> %v", first, last)
	}
}

func TestA6OutageLatencyOrdering(t *testing.T) {
	tab := A6Metering(1)
	// The three latency rows must be strictly decreasing (monthly,
	// daily, hourly cadences).
	var latencies []float64
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "outage latency") {
			latencies = append(latencies, parseFloat(t, strings.TrimSuffix(row[1], " h")))
		}
	}
	if len(latencies) != 3 {
		t.Fatalf("latency rows = %d", len(latencies))
	}
	if !(latencies[0] > latencies[1] && latencies[1] > latencies[2]) {
		t.Fatalf("latencies not decreasing: %v", latencies)
	}
}

func TestA8HandoffStopsLeaks(t *testing.T) {
	tab := A8GatewayMigration(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	handoff, naive := tab.Rows[0], tab.Rows[1]
	if handoff[2] != "0" {
		t.Fatalf("handoff leaked %s bad packets", handoff[2])
	}
	if naive[2] == "0" {
		t.Fatal("naive swap should leak the blocklisted device")
	}
	if handoff[1] != naive[1] {
		t.Fatalf("good delivery differs: %s vs %s", handoff[1], naive[1])
	}
	if handoff[3] == "0" {
		t.Fatal("handoff inherited no devices")
	}
}

func TestA14CenturyHoldsUptime(t *testing.T) {
	if testing.Short() {
		t.Skip("100-year run")
	}
	tab := A14Century(1)
	var uptime float64
	for _, row := range tab.Rows {
		if row[0] == "weekly uptime (100y)" {
			uptime = parsePct(t, row[1])
		}
	}
	if uptime < 98 {
		t.Fatalf("century uptime = %v%%", uptime)
	}
}

func TestA7GrimSymmetry(t *testing.T) {
	tab := A7BridgeMonitor()
	// Find health and harvest at year 10 and year 50: health falls,
	// harvest rises.
	var h10, h50, p10, p50 float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "10.0":
			h10, p10 = parseFloat(t, row[1]), parseFloat(t, row[3])
		case "50.0":
			h50, p50 = parseFloat(t, row[1]), parseFloat(t, row[3])
		}
	}
	if !(h50 < h10 && p50 > p10) {
		t.Fatalf("grim symmetry broken: health %v->%v harvest %v->%v", h10, h50, p10, p50)
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("not a float: %q (%v)", s, err)
	}
	return v
}
