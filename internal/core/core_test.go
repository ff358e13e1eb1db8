package core

import (
	"slices"
	"testing"
	"time"

	"centuryscale/internal/device"
	"centuryscale/internal/sim"
)

func TestHierarchyShape(t *testing.T) {
	// Figure 1's qualitative claims, quantified.
	rep := BuildHierarchy(DefaultHierarchy())
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Population shrinks going up.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].Count >= rep.Rows[i-1].Count {
			t.Fatalf("tier %v count %d not below tier %v count %d",
				rep.Rows[i].Tier, rep.Rows[i].Count, rep.Rows[i-1].Tier, rep.Rows[i-1].Count)
		}
	}
	// Ultimate reliance grows going up: each backhaul carries more
	// devices than each gateway, the cloud carries them all.
	if rep.RelianceAt(TierGateway) >= rep.RelianceAt(TierBackhaul) {
		t.Fatal("backhaul must carry more devices than a gateway")
	}
	if rep.RelianceAt(TierBackhaul) >= rep.RelianceAt(TierCloud) {
		t.Fatal("cloud must carry more devices than a backhaul")
	}
	if rep.RelianceAt(TierCloud) != 10000 {
		t.Fatalf("cloud reliance = %v, want all devices", rep.RelianceAt(TierCloud))
	}
	// Lifetime variability shrinks (and mean grows) going up — devices
	// are numerous and individually unreliable; upper tiers must be
	// stable.
	dev := rep.Rows[0].Lifetimes
	bh := rep.Rows[2].Lifetimes
	if bh.MeanYears <= dev.MeanYears {
		t.Fatalf("backhaul mean life %v must exceed device %v", bh.MeanYears, dev.MeanYears)
	}
	if dev.CoV <= 0 {
		t.Fatal("device lifetime spread missing")
	}
}

func TestHierarchyPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty hierarchy did not panic")
		}
	}()
	BuildHierarchy(HierarchyConfig{})
}

func TestTierNames(t *testing.T) {
	if TierDevice.String() != "devices" || TierCloud.String() != "cloud" {
		t.Fatal("tier names wrong")
	}
	if Tier(9).String() != "tier(9)" {
		t.Fatal("unknown tier fallback")
	}
	if OwnedWPAN.String() != "owned-802.15.4" || ThirdPartyLoRa.String() != "third-party-lora" {
		t.Fatal("design names wrong")
	}
}

func shortOwned(seed uint64) ExperimentConfig {
	cfg := DefaultExperiment(OwnedWPAN)
	cfg.Seed = seed
	cfg.Horizon = sim.Years(5)
	cfg.NumDevices = 20
	cfg.ReportInterval = 12 * time.Hour
	return cfg
}

func TestOwnedDesignEndToEnd(t *testing.T) {
	out := RunExperiment(shortOwned(1))
	if out.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
	if out.PacketsAccepted == 0 {
		t.Fatal("no packets reached the endpoint")
	}
	if r := out.DeliveryRatio(); r < 0.5 || r > 1 {
		t.Fatalf("delivery ratio = %v", r)
	}
	// Over a short 5-year run nearly all harvesting devices survive.
	if out.DevicesAliveAtEnd < 15 {
		t.Fatalf("alive at end = %d of 20", out.DevicesAliveAtEnd)
	}
	if out.WeeklyUptime < 0.95 {
		t.Fatalf("weekly uptime = %v", out.WeeklyUptime)
	}
	if out.Ledger.Total() <= 0 {
		t.Fatal("ledger empty")
	}
}

func TestThirdPartyDesignEndToEnd(t *testing.T) {
	cfg := DefaultExperiment(ThirdPartyLoRa)
	cfg.Horizon = sim.Years(5)
	cfg.NumDevices = 10
	cfg.ReportInterval = 12 * time.Hour
	out := RunExperiment(cfg)
	if out.PacketsAccepted == 0 {
		t.Fatal("no packets accepted")
	}
	if out.WeeklyUptime < 0.9 {
		t.Fatalf("weekly uptime = %v", out.WeeklyUptime)
	}
	// The wallet funded everything and still has credits.
	if out.WalletRemaining <= 0 {
		t.Fatalf("wallet remaining = %d", out.WalletRemaining)
	}
}

func TestWalletExhaustionStopsDelivery(t *testing.T) {
	cfg := DefaultExperiment(ThirdPartyLoRa)
	cfg.Horizon = sim.Years(3)
	cfg.NumDevices = 10
	cfg.ReportInterval = 6 * time.Hour
	cfg.WalletCents = 1 // 1,000 credits for ~43,800 scheduled packets
	out := RunExperiment(cfg)
	if out.WalletRemaining > 2 {
		t.Fatalf("wallet should be drained, has %d", out.WalletRemaining)
	}
	if out.PacketsDelivered >= out.PacketsSent/2 {
		t.Fatalf("delivery should collapse after wallet exhaustion: %d of %d",
			out.PacketsDelivered, out.PacketsSent)
	}
}

func TestNetworkCollapseAndHedge(t *testing.T) {
	base := DefaultExperiment(ThirdPartyLoRa)
	base.Horizon = sim.Years(30)
	base.NumDevices = 10
	base.ReportInterval = sim.Day
	base.Helium.InitialHotspots = 100
	base.Helium.GrowthStopsAfterYears = 2
	base.GatewayRepairLag = 30 * sim.Day

	unhedged := base
	unhedged.DeployOwnedHotspotsOnCollapse = false
	hedged := base
	hedged.DeployOwnedHotspotsOnCollapse = true

	u := RunExperiment(unhedged)
	h := RunExperiment(hedged)
	if h.WeeklyUptime <= u.WeeklyUptime {
		t.Fatalf("hedge must improve uptime: %v vs %v", h.WeeklyUptime, u.WeeklyUptime)
	}
	if u.WeeklyUptime > 0.75 {
		t.Fatalf("collapsed network uptime = %v, expected collapse", u.WeeklyUptime)
	}
	if h.WeeklyUptime < 0.9 {
		t.Fatalf("hedged uptime = %v", h.WeeklyUptime)
	}
	if h.GatewayReplaced == 0 {
		t.Fatal("hedge never deployed owned hotspots")
	}
}

func TestBatteryFleetDiesHarvestingPersists(t *testing.T) {
	// The central comparison at 50 years, small scale.
	mk := func(class device.Class) *Outcome {
		cfg := DefaultExperiment(OwnedWPAN)
		cfg.Horizon = sim.Years(50)
		cfg.NumDevices = 60
		cfg.ReportInterval = 2 * sim.Day
		cfg.DeviceClass = class
		return RunExperiment(cfg)
	}
	batt := mk(device.ClassBattery)
	harv := mk(device.ClassHarvesting)
	if batt.DevicesAliveAtEnd > 1 {
		t.Fatalf("battery devices alive at 50y = %d", batt.DevicesAliveAtEnd)
	}
	if harv.DevicesAliveAtEnd <= batt.DevicesAliveAtEnd {
		t.Fatalf("harvesting devices alive = %d vs battery %d",
			harv.DevicesAliveAtEnd, batt.DevicesAliveAtEnd)
	}
	if harv.WeeklyUptime <= batt.WeeklyUptime {
		t.Fatalf("harvesting uptime %v must beat battery %v", harv.WeeklyUptime, batt.WeeklyUptime)
	}
}

func TestLeaseLapseHurtsUptime(t *testing.T) {
	clean := shortOwned(3)
	clean.Horizon = sim.Years(15)
	lapsed := clean
	lapsed.MissLeaseRenewals = []int{0} // miss the year-10 renewal
	lapsed.LeaseLapse = sim.Years(1)

	c := RunExperiment(clean)
	l := RunExperiment(lapsed)
	if l.WeeklyUptime >= c.WeeklyUptime {
		t.Fatalf("lease lapse must dent uptime: %v vs %v", l.WeeklyUptime, c.WeeklyUptime)
	}
	if l.PacketsLapsed == 0 {
		t.Fatal("no packets were dropped during the lapse")
	}
	if c.PacketsLapsed != 0 {
		t.Fatalf("%d packets dropped with every renewal made", c.PacketsLapsed)
	}
}

func TestLeaseLapseDropsData(t *testing.T) {
	cfg := shortOwned(3)
	cfg.Horizon = sim.Years(15)
	cfg.MissLeaseRenewals = []int{0} // miss the year-10 renewal
	cfg.LeaseLapse = sim.Years(1)

	l := RunExperiment(cfg)
	if l.PacketsLapsed == 0 {
		t.Fatal("no packets were dropped during the lapse")
	}
	// The drops never reach the endpoint: it decided every other delivery
	// once, and holds nothing that arrived inside the window.
	st := l.Store.Stats()
	if decided := st.Accepted + st.Duplicates + st.BadSignature + st.Malformed + st.UnknownDev; decided != l.PacketsDelivered-l.PacketsLapsed {
		t.Fatalf("the endpoint decided %d packets; %d were delivered and %d of them dropped", decided, l.PacketsDelivered, l.PacketsLapsed)
	}
	from, to := sim.Years(10), sim.Years(11)
	for _, dev := range l.Store.Devices() {
		for _, r := range l.Store.HistoryRange(dev, from, to) {
			t.Fatalf("device %v has a reading at %v, inside the lapse", dev, r.At)
		}
	}
}

// naiveLongestGap is the fleet-wide longest gap by brute force: every
// reading the store holds, flattened and sorted, with the run-in from 0
// and the run-out to the horizon.
func naiveLongestGap(out *Outcome) time.Duration {
	var times []time.Duration
	for _, dev := range out.Store.Devices() {
		for _, r := range out.Store.History(dev) {
			times = append(times, r.At)
		}
	}
	slices.Sort(times)
	var gap, prev time.Duration
	for _, at := range append(times, out.Config.Horizon) {
		gap = max(gap, at-prev)
		prev = at
	}
	return gap
}

// TestLongestGapMatchesStore: the running maximum RunExperiment keeps
// over accepted arrivals equals the longest gap over every reading the
// store holds — on a plain run, across a lease lapse (a year-long gap
// mid-run) and after a wallet runs dry (the gap is the run-out).
func TestLongestGapMatchesStore(t *testing.T) {
	lapsed := shortOwned(3)
	lapsed.Horizon = sim.Years(11)
	lapsed.MissLeaseRenewals = []int{0}
	lapsed.LeaseLapse = sim.Years(1)
	drained := DefaultExperiment(ThirdPartyLoRa)
	drained.Horizon = sim.Years(3)
	drained.NumDevices = 10
	drained.ReportInterval = 6 * time.Hour
	drained.WalletCents = 1
	for _, tc := range []struct {
		name    string
		cfg     ExperimentConfig
		atLeast time.Duration
	}{
		{"owned", shortOwned(1), 0},
		{"lease lapse", lapsed, sim.Years(1)},
		{"wallet drained", drained, sim.Years(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := RunExperiment(tc.cfg)
			if out.PacketsAccepted == 0 {
				t.Fatal("no packets accepted")
			}
			if want := naiveLongestGap(out); out.LongestGap != want {
				t.Fatalf("LongestGap = %v, the store's readings give %v", out.LongestGap, want)
			}
			if out.LongestGap < tc.atLeast {
				t.Fatalf("LongestGap = %v, want at least %v", out.LongestGap, tc.atLeast)
			}
		})
	}
}

func TestDomainLeaseSchedule(t *testing.T) {
	// 50 years at a 10-year max term: renewals at 10, 20, 30, 40.
	sched := DomainLeaseSchedule(sim.Years(50), sim.Years(10))
	if len(sched) != 4 {
		t.Fatalf("schedule = %v", sched)
	}
	if sched[0] != sim.Years(10) || sched[3] != sim.Years(40) {
		t.Fatalf("schedule = %v", sched)
	}
}

func TestDomainLeasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero lease term did not panic")
		}
	}()
	DomainLeaseSchedule(sim.Years(50), 0)
}

func TestExperimentDeterministic(t *testing.T) {
	a := RunExperiment(shortOwned(7))
	b := RunExperiment(shortOwned(7))
	if a.PacketsSent != b.PacketsSent || a.PacketsAccepted != b.PacketsAccepted ||
		a.WeeklyUptime != b.WeeklyUptime {
		t.Fatal("same seed diverged")
	}
}

func TestNoMaintenanceGatewaysDecay(t *testing.T) {
	cfg := DefaultExperiment(OwnedWPAN)
	cfg.Horizon = sim.Years(40)
	cfg.NumDevices = 20
	cfg.ReportInterval = 2 * sim.Day
	cfg.MaintainGateways = false
	out := RunExperiment(cfg)
	maintained := cfg
	maintained.MaintainGateways = true
	m := RunExperiment(maintained)
	if out.WeeklyUptime >= m.WeeklyUptime {
		t.Fatalf("unmaintained gateways should sink uptime: %v vs %v",
			out.WeeklyUptime, m.WeeklyUptime)
	}
	if out.GatewayReplaced != 0 {
		t.Fatal("unmaintained run replaced gateways")
	}
}

func BenchmarkExperimentFiveYears(b *testing.B) {
	cfg := shortOwned(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		_ = RunExperiment(cfg)
	}
}

func TestBridgeCoupledScenario(t *testing.T) {
	cfg := DefaultBridge()
	cfg.Seed = 5
	out := RunBridge(cfg)
	if out.PacketsAccepted == 0 {
		t.Fatal("no packets accepted")
	}
	// Reported health tracks ground truth: ~1.0 mid-life, collapsing at
	// end of service life.
	mid := out.HealthAtYear[20]
	if mid < 0.9 || mid > 1.1 {
		t.Fatalf("reported health at year 20 = %v", mid)
	}
	eolYear := int(cfg.Structure.ServiceLifeYears())
	if eol := out.HealthAtYear[eolYear]; eol > 0.35 && eol != -1 {
		t.Fatalf("reported health at EOL year = %v, want collapsed", eol)
	}
	// The pre-initiation passive regime starves the 12-hourly cadence
	// (5 µW supports ~2-hourly at best after leakage) — skips happen,
	// but weekly uptime holds because the fleet is staggered by energy.
	if out.StarvedSkips == 0 {
		t.Fatal("no energy-starved skips in the passive regime")
	}
	if out.WeeklyUptime < 0.95 {
		t.Fatalf("weekly uptime = %v", out.WeeklyUptime)
	}
}

func TestBridgeDeterministic(t *testing.T) {
	cfg := DefaultBridge()
	cfg.Sensors = 4
	cfg.Horizon = sim.Years(5)
	a := RunBridge(cfg)
	b := RunBridge(cfg)
	if a.PacketsAccepted != b.PacketsAccepted || a.WeeklyUptime != b.WeeklyUptime {
		t.Fatal("same seed diverged")
	}
}

func TestBridgePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty bridge config did not panic")
		}
	}()
	RunBridge(BridgeConfig{})
}

func TestDeviceReplacementLivingStudy(t *testing.T) {
	// §4.4: devices stay untouched, but failures get documented,
	// diagnosed, and replaced. With replacement on, the fleet holds its
	// strength over 50 years; the diary records each intervention.
	cfg := DefaultExperiment(OwnedWPAN)
	cfg.Horizon = sim.Years(50)
	cfg.NumDevices = 20
	cfg.ReportInterval = 2 * sim.Day
	cfg.ReplaceFailedDevices = true
	cfg.DeviceReplaceLag = 60 * sim.Day
	out := RunExperiment(cfg)

	if out.DeviceReplacements == 0 {
		t.Fatal("no device replacements in 50 years")
	}
	// The replaced fleet ends near full strength.
	if out.DevicesAliveAtEnd < 15 {
		t.Fatalf("alive at end = %d of 20 with replacement on", out.DevicesAliveAtEnd)
	}
	// Diary records the interventions in order.
	replaceEntries := 0
	var last time.Duration
	for _, e := range out.Diary {
		if e.At < last {
			t.Fatal("diary out of order")
		}
		last = e.At
		if len(e.What) == 0 {
			t.Fatal("empty diary entry")
		}
		if e.What[0] == 'd' { // device entries
			replaceEntries++
		}
	}
	if replaceEntries != out.DeviceReplacements {
		t.Fatalf("diary device entries = %d, replacements = %d",
			replaceEntries, out.DeviceReplacements)
	}
	// Replacements cost money.
	if out.Ledger.ByCategory()["device-replace"] == 0 {
		t.Fatal("no replacement costs in the ledger")
	}

	// Contrast: the untouched fleet decays.
	untouched := cfg
	untouched.ReplaceFailedDevices = false
	u := RunExperiment(untouched)
	if u.DevicesAliveAtEnd >= out.DevicesAliveAtEnd {
		t.Fatalf("untouched fleet (%d alive) should trail replaced fleet (%d)",
			u.DevicesAliveAtEnd, out.DevicesAliveAtEnd)
	}
}

func TestDiaryEmptyWithoutInterventions(t *testing.T) {
	cfg := shortOwned(4)
	cfg.Horizon = sim.Years(2) // too short for gateway failures, usually
	out := RunExperiment(cfg)
	for _, e := range out.Diary {
		// Whatever is in the diary must be a real intervention type.
		switch {
		case len(e.What) >= 7 && e.What[:7] == "gateway":
		case len(e.What) >= 6 && e.What[:6] == "device":
		case len(e.What) >= 6 && e.What[:6] == "domain":
		case len(e.What) >= 5 && e.What[:5] == "third":
		default:
			t.Fatalf("unrecognised diary entry %q", e.What)
		}
	}
}
