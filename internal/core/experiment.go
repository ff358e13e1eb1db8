package core

import (
	"fmt"
	"sort"
	"time"

	"centuryscale/internal/backhaul"
	"centuryscale/internal/city"
	"centuryscale/internal/cloud"
	"centuryscale/internal/device"
	"centuryscale/internal/econ"
	"centuryscale/internal/energy"
	"centuryscale/internal/helium"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/radio"
	"centuryscale/internal/reliability"
	"centuryscale/internal/rng"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
)

// GatewayDesign selects one of the paper's two §4.2 design points.
type GatewayDesign int

// Gateway designs.
const (
	// OwnedWPAN is the "owned infrastructure" design: self-deployed
	// 802.15.4 gateways on a municipal backhaul, maintained on failure.
	OwnedWPAN GatewayDesign = iota
	// ThirdPartyLoRa is the "(hedged) third-party infrastructure"
	// design: extant LoRa hotspots paid per packet from a prepaid
	// wallet.
	ThirdPartyLoRa
)

// String implements fmt.Stringer.
func (d GatewayDesign) String() string {
	switch d {
	case OwnedWPAN:
		return "owned-802.15.4"
	case ThirdPartyLoRa:
		return "third-party-lora"
	default:
		return fmt.Sprintf("design(%d)", int(d))
	}
}

// ExperimentConfig parameterises one end-to-end run of the 50-year
// experiment.
type ExperimentConfig struct {
	Seed    uint64
	Horizon time.Duration

	// Devices.
	NumDevices     int
	DeviceClass    device.Class
	ReportInterval time.Duration

	Design GatewayDesign

	// OwnedWPAN design.
	NumGateways int
	// MaintainGateways replaces failed gateways after GatewayRepairLag
	// (the paper allows gateway upkeep; only edge devices are
	// untouchable).
	MaintainGateways bool
	GatewayRepairLag time.Duration
	Backhaul         backhaul.Profile

	// ThirdPartyLoRa design.
	Helium helium.NetworkConfig
	// WalletCents is prepaid at deployment *per device*, following the
	// §4.4 recipe ($5 per device covers its 50 years of hourly uplink).
	WalletCents int64
	// DeployOwnedHotspotsOnCollapse enacts the hedge: when third-party
	// coverage is lost, deploy owned hotspots after the repair lag.
	DeployOwnedHotspotsOnCollapse bool

	// City geometry: devices scatter in a disc of this radius around
	// each gateway's coverage area (owned design), meters.
	CellRadiusMeters float64

	// MissLeaseRenewals injects the institutional failure: the domain
	// lease renewals at these indices (0-based) of DomainLeaseSchedule
	// are missed, darkening the endpoint for LeaseLapse until someone
	// notices.
	MissLeaseRenewals []int
	LeaseLapse        time.Duration

	// ReplaceFailedDevices enacts §4.4's living-study rule: the
	// experiment stipulates devices remain untouched, "but if they do
	// fail, we will document, diagnose, and replace them." A failed
	// device is diagnosed and replaced (fresh hardware, fresh address)
	// after DeviceReplaceLag; the event lands in the diary.
	ReplaceFailedDevices bool
	DeviceReplaceLag     time.Duration
}

// DiaryEntry is one line of the experiment's living maintenance diary
// (§4.5): every intervention, dated and attributed.
type DiaryEntry struct {
	At   time.Duration
	What string
}

// DefaultExperiment returns the paper's initial deployment, scaled to
// simulate quickly: a modest number of harvesting transmit-only devices
// reporting every 6 hours for 50 years.
func DefaultExperiment(design GatewayDesign) ExperimentConfig {
	cfg := ExperimentConfig{
		Seed:             1,
		Horizon:          sim.Years(50),
		NumDevices:       40,
		DeviceClass:      device.ClassHarvesting,
		ReportInterval:   6 * time.Hour,
		Design:           design,
		NumGateways:      4,
		MaintainGateways: true,
		GatewayRepairLag: 14 * sim.Day,
		Backhaul:         backhaul.DefaultProfile(backhaul.Fiber, backhaul.Municipal),
		WalletCents:      500, // the $5-per-device wallet
		CellRadiusMeters: 70,  // inside the 0 dBm 2.4 GHz street-level budget
	}
	cfg.Helium = helium.DefaultNetworkConfig()
	cfg.Helium.InitialHotspots = 1200 // metro-area slice of the network
	return cfg
}

// Outcome is the result of one experiment run.
type Outcome struct {
	Config ExperimentConfig

	PacketsSent      uint64
	PacketsDelivered uint64
	// PacketsLapsed counts deliveries that fell inside a missed lease
	// renewal's window: nobody was listening at the published name, so
	// they never reached the endpoint.
	PacketsLapsed   uint64
	PacketsAccepted uint64 // after endpoint verification + dedup

	DevicesAliveAtEnd  int
	DeviceReplacements int
	GatewayFailures    int
	GatewayReplaced    int

	// Diary is the living maintenance log: every intervention the
	// operators made, in time order.
	Diary []DiaryEntry

	WalletRemaining int64

	WeeklyUptime float64
	// LongestGap is the longest interval in [0, Horizon) with no
	// accepted packet from any device, counting the run-in from 0 and
	// the run-out to the horizon.
	LongestGap time.Duration

	// YearlyAccepted[y] counts packets accepted during simulation year y
	// — the raw series behind the experiment's public uptime chart.
	YearlyAccepted []uint64
	// YearlyAliveDevices[y] counts devices alive at the start of year y.
	YearlyAliveDevices []int

	Ledger econ.Ledger
	Store  *cloud.Store
}

// DeliveryRatio is end-to-end delivered/sent.
func (o *Outcome) DeliveryRatio() float64 {
	if o.PacketsSent == 0 {
		return 0
	}
	return float64(o.PacketsDelivered) / float64(o.PacketsSent)
}

// masterSecret provisions device keys for the whole experiment fleet.
var masterSecret = []byte("centuryscale-experiment-master")

// DomainLeaseSchedule returns the renewal deadlines the operators must
// meet over the horizon given the maximum lease term (10 years per ICANN,
// §4.5): one renewal at every multiple of the term.
func DomainLeaseSchedule(horizon time.Duration, maxTerm time.Duration) []time.Duration {
	if maxTerm <= 0 {
		panic("core: non-positive lease term")
	}
	var out []time.Duration
	for t := maxTerm; t < horizon; t += maxTerm {
		out = append(out, t)
	}
	return out
}

// ownedGateway is a gateway slot in the owned design with its own renewal
// process (gateways are maintainable infrastructure, unlike devices).
type ownedGateway struct {
	pos      city.Point
	aliveTo  time.Duration
	failures int
	replaced int
}

// RunExperiment executes the end-to-end simulation.
func RunExperiment(cfg ExperimentConfig) *Outcome {
	if cfg.NumDevices <= 0 || cfg.Horizon <= 0 || cfg.ReportInterval <= 0 {
		panic("core: incomplete experiment config")
	}
	src := rng.New(cfg.Seed)
	eng := sim.NewEngine()
	out := &Outcome{Config: cfg}
	out.Store = cloud.NewStore(cloud.StaticKeys(masterSecret))
	years := int(sim.ToYears(cfg.Horizon)) + 1
	out.YearlyAccepted = make([]uint64, years)
	out.YearlyAliveDevices = make([]int, years)
	// The fleet-wide longest gap is a running maximum over the arrivals
	// the store accepted: events run in virtual-time order, so this is
	// the gap from 0 to the first arrival and between consecutive ones;
	// the run-out to the horizon is added after the run.
	var lastAccepted time.Duration

	// Institutional failure injection: a missed lease renewal darkens the
	// public name, so what is delivered in [from, to) reaches no endpoint.
	type window struct{ from, to time.Duration }
	var dark []window
	if len(cfg.MissLeaseRenewals) > 0 {
		sched := DomainLeaseSchedule(cfg.Horizon, sim.Years(10))
		lapse := cfg.LeaseLapse
		if lapse <= 0 {
			lapse = 60 * sim.Day
		}
		for _, idx := range cfg.MissLeaseRenewals {
			if idx >= 0 && idx < len(sched) {
				dark = append(dark, window{sched[idx], sched[idx] + lapse})
				out.Diary = append(out.Diary, DiaryEntry{
					At:   sched[idx],
					What: "domain lease renewal missed; public endpoint dark",
				})
			}
		}
	}

	// Channel / protocol parameters per design.
	var (
		linkSuccess func(devIdx int, now time.Duration) bool
		chargeOK    func() bool
	)

	devPosSrc := src.Split("positions")
	shadowSrc := src.Split("shadowing")

	switch cfg.Design {
	case OwnedWPAN:
		if cfg.NumGateways <= 0 {
			panic("core: owned design needs gateways")
		}
		ch := radio.Urban24Channel()
		link := radio.Link{TxPowerDBm: 0}
		sens := radio.IEEE802154{}.Sensitivity()
		airtime, err := radio.IEEE802154{}.Airtime(telemetry.PacketSize + lpwan.Overhead)
		if err != nil {
			panic(err)
		}
		load := radio.OfferedLoad(cfg.NumDevices/cfg.NumGateways, airtime, cfg.ReportInterval)
		alohaP := radio.AlohaSuccess(load)

		// Gateways with renewal processes; devices scatter around them.
		gwBOM := reliability.GatewayBOM()
		gwSrc := src.Split("gateways")
		gws := make([]*ownedGateway, cfg.NumGateways)
		for i := range gws {
			life, _ := gwBOM.SampleLifetime(gwSrc)
			gws[i] = &ownedGateway{
				pos:     city.Point{X: float64(i) * 4 * cfg.CellRadiusMeters, Y: 0},
				aliveTo: sim.Years(life),
			}
		}
		// Gateway maintenance: when a gateway dies, schedule its
		// replacement (new sampled lifetime) after the repair lag.
		var maintain func(g *ownedGateway)
		maintain = func(g *ownedGateway) {
			eng.After(g.aliveTo-eng.Now(), func() {
				g.failures++
				out.GatewayFailures++
				out.Diary = append(out.Diary, DiaryEntry{
					At: eng.Now(), What: "gateway failed",
				})
				if !cfg.MaintainGateways {
					return
				}
				eng.After(cfg.GatewayRepairLag, func() {
					life, _ := gwBOM.SampleLifetime(gwSrc)
					g.aliveTo = eng.Now() + sim.Years(life)
					g.replaced++
					out.GatewayReplaced++
					out.Ledger.Add(eng.Now(), "gateway-replace", 15000, "RPi-class gateway + labor")
					out.Diary = append(out.Diary, DiaryEntry{
						At: eng.Now(), What: "gateway replaced; commissioning handoff imported",
					})
					maintain(g)
				})
			})
		}
		for _, g := range gws {
			out.Ledger.Add(0, "gateway-capex", 15000, "initial gateway")
			maintain(g)
		}
		// Backhaul: one link shared by all owned gateways.
		bh := backhaul.New(cfg.Backhaul, cfg.Horizon, src.Split("backhaul"))
		out.Ledger.Add(0, "backhaul-capex", econ.Cents(cfg.Backhaul.CapexCents), "link install")

		// Each device associates with the nearest gateway cell.
		devGW := make([]int, cfg.NumDevices)
		devDist := make([]float64, cfg.NumDevices)
		for i := range devGW {
			devGW[i] = i % cfg.NumGateways
			devDist[i] = devPosSrc.Uniform(10, cfg.CellRadiusMeters)
		}
		linkSuccess = func(devIdx int, now time.Duration) bool {
			g := gws[devGW[devIdx]]
			if now >= g.aliveTo {
				return false
			}
			if !bh.AvailableAt(now) {
				return false
			}
			margin := link.MarginDB(ch, devDist[devIdx], sens)
			p := radio.LinkSuccessProb(margin, ch.ShadowSigmaDB) * alohaP
			return shadowSrc.Bernoulli(p)
		}
		chargeOK = func() bool { return true }

	case ThirdPartyLoRa:
		net := helium.NewNetwork(cfg.Helium, src.Split("helium"))
		wallet := helium.NewWallet(0)
		prepaid := cfg.WalletCents * int64(cfg.NumDevices)
		wallet.Provision(prepaid)
		out.Ledger.Add(0, "data-credits", econ.Cents(prepaid), "prepaid wallet ($5/device recipe)")

		hedgeDeployed := false
		ch := radio.UrbanChannel()
		link := radio.Link{TxPowerDBm: 14}
		cfgLoRa := radio.DefaultLoRa(10)
		sens := cfgLoRa.Sensitivity()
		load := radio.OfferedLoad(cfg.Helium.InitialHotspots/10, cfgLoRa.Airtime(telemetry.PacketSize), cfg.ReportInterval)
		alohaP := radio.AlohaSuccess(load)

		devDist := make([]float64, cfg.NumDevices)
		for i := range devDist {
			devDist[i] = devPosSrc.Uniform(100, 3000)
		}
		linkSuccess = func(devIdx int, now time.Duration) bool {
			if !net.CoverageAt(now, 1, nil) {
				// Coverage collapsed: enact the hedge once, after the
				// repair lag, if configured.
				if cfg.DeployOwnedHotspotsOnCollapse && !hedgeDeployed {
					hedgeDeployed = true
					eng.After(cfg.GatewayRepairLag, func() {
						net.AddOwned(2, eng.Now())
						out.GatewayReplaced += 2
						out.Ledger.Add(eng.Now(), "owned-hotspot", 60000, "hedge: 2 owned hotspots")
						out.Diary = append(out.Diary, DiaryEntry{
							At:   eng.Now(),
							What: "third-party network unusable; deployed 2 owned hotspots (the semi-federation hedge)",
						})
					})
				}
				return false
			}
			margin := link.MarginDB(ch, devDist[devIdx], sens)
			p := radio.LinkSuccessProb(margin, ch.ShadowSigmaDB) * alohaP
			return shadowSrc.Bernoulli(p)
		}
		chargeOK = func() bool { return wallet.Charge(1) == nil }
		defer func() { out.WalletRemaining = wallet.Balance() }()

	default:
		panic(fmt.Sprintf("core: unknown design %d", int(cfg.Design)))
	}

	// Build and install devices. Each slot may see several device
	// generations when §4.4's replace-on-failure rule is enabled.
	devSrc := src.Split("devices")
	alive := make([]*device.Device, cfg.NumDevices)
	var generation int
	var deploy func(idx int)
	deploy = func(idx int) {
		generation++
		id := lpwan.EUIFromUint64(0x0100000000000000 | uint64(generation)<<16 | uint64(idx))
		dcfg := device.Config{
			ID:             id,
			Class:          cfg.DeviceClass,
			Sensor:         telemetry.SensorConcreteEMI,
			ReportInterval: cfg.ReportInterval,
			Key:            telemetry.DeriveKey(masterSecret, id),
			Task:           energy.TaskCost{SenseMicroJoules: 2000, CPUMicroJoules: 3000, TxMicroJoules: 25000},
		}
		switch cfg.DeviceClass {
		case device.ClassHarvesting:
			dcfg.Harvester = energy.CathodicProtection{InitialMicroWatts: 50, DeclinePerCentury: 0.3}
			dcfg.Store = energy.SupercapStore(0.1, 1.8, 5.0, 1)
		case device.ClassBattery:
			dcfg.BatteryMicroJoules = 3.24e10
			dcfg.SleepMicroWatts = 6
		}
		d := device.New(dcfg, devSrc)
		alive[idx] = d
		d.Install(eng, func(now time.Duration, wire []byte) {
			out.PacketsSent++
			if !linkSuccess(idx, now) {
				return
			}
			if !chargeOK() {
				return
			}
			out.PacketsDelivered++
			for _, w := range dark {
				if now >= w.from && now < w.to {
					out.PacketsLapsed++
					return
				}
			}
			if err := out.Store.Ingest(now, wire); err == nil {
				out.PacketsAccepted++
				out.LongestGap = max(out.LongestGap, now-lastAccepted)
				lastAccepted = now
				if y := int(sim.ToYears(now)); y < len(out.YearlyAccepted) {
					out.YearlyAccepted[y]++
				}
			}
		})
		if eng.Now() == 0 {
			out.Ledger.Add(0, "device-capex", 5000, "sensor hardware")
		} else {
			out.Ledger.Add(eng.Now(), "device-replace", 7500, "diagnose + replace failed sensor")
		}
		if cfg.ReplaceFailedDevices {
			failAt, cause := d.FailureAt()
			dieTime := eng.Now() + failAt
			if dieTime < cfg.Horizon {
				lag := cfg.DeviceReplaceLag
				if lag <= 0 {
					lag = 30 * sim.Day
				}
				eng.After(failAt+lag, func() {
					out.DeviceReplacements++
					out.Diary = append(out.Diary, DiaryEntry{
						At:   eng.Now(),
						What: fmt.Sprintf("device %v failed (%s); documented, diagnosed, replaced", id, cause),
					})
					deploy(idx)
				})
			}
		}
	}
	for i := 0; i < cfg.NumDevices; i++ {
		deploy(i)
	}
	for y := 0; y < years; y++ {
		yr := y
		eng.After(sim.Years(float64(yr)), func() {
			for _, d := range alive {
				if d != nil && d.Alive(eng.Now()) {
					out.YearlyAliveDevices[yr]++
				}
			}
		})
	}
	eng.After(cfg.Horizon, func() {
		for _, d := range alive {
			if d != nil && d.Alive(cfg.Horizon) {
				out.DevicesAliveAtEnd++
			}
		}
	})

	eng.Run(cfg.Horizon)
	out.WeeklyUptime = out.Store.WeeklyUptime(cfg.Horizon)
	out.LongestGap = max(out.LongestGap, cfg.Horizon-lastAccepted)
	// Lease-lapse entries are written at schedule time, before the run:
	// put the diary in time order for readers.
	sort.Slice(out.Diary, func(i, j int) bool { return out.Diary[i].At < out.Diary[j].At })
	return out
}
