package core

import (
	"time"

	"centuryscale/internal/cloud"
	"centuryscale/internal/concrete"
	"centuryscale/internal/device"
	"centuryscale/internal/energy"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/rng"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
)

// The fully-coupled scenario of §1/§4.1: sensors cast into a structure
// report its health and are powered by its corrosion. Unlike the generic
// experiment, here the harvester and the sensed value are both functions
// of the same physical state, so the energy budget and the data stream
// co-evolve with the structure.

// structureHarvester adapts a concrete.Structure's corrosion cell to the
// energy.Harvester interface.
type structureHarvester struct {
	s            concrete.Structure
	electrodeCM2 float64
	cellVolts    float64
}

// PowerAt implements energy.Harvester.
func (h structureHarvester) PowerAt(t time.Duration) float64 {
	return h.s.HarvestMicroWatts(h.electrodeCM2, h.cellVolts, t)
}

// MeanPower implements energy.Harvester: the average of passive and
// active regimes weighted by a 50-year horizon.
func (h structureHarvester) MeanPower() float64 {
	init := h.s.InitiationYears()
	horizon := 50.0
	if init >= horizon {
		return h.PowerAt(0)
	}
	passive := h.PowerAt(0)
	active := h.PowerAt(sim.Years(init + 1))
	return (passive*init + active*(horizon-init)) / horizon
}

// BridgeConfig parameterises the coupled scenario.
type BridgeConfig struct {
	Seed      uint64
	Structure concrete.Structure
	// Sensors embedded in the structure.
	Sensors        int
	ReportInterval time.Duration
	// Horizon defaults to the structure's service life plus five years.
	Horizon time.Duration
}

// DefaultBridge returns the paper's initial deployment: a handful of
// sensors cast into one bridge deck.
func DefaultBridge() BridgeConfig {
	return BridgeConfig{
		Seed:           1,
		Structure:      concrete.Bridge(),
		Sensors:        12,
		ReportInterval: 2 * time.Hour,
	}
}

// BridgeOutcome reports the coupled run.
type BridgeOutcome struct {
	Config            BridgeConfig
	Horizon           time.Duration
	PacketsAccepted   uint64
	WeeklyUptime      float64
	SensorsAliveAtEOL int
	// HealthAtYear[y] is the mean reported health index during year y
	// (NaN-free: years with no data hold -1).
	HealthAtYear []float64
	// StarvedSkips counts reports skipped for lack of harvested energy
	// (concentrated in the pre-initiation passive regime).
	StarvedSkips uint64
}

// RunBridge executes the coupled scenario: every sensor harvests from and
// reports on the same structure; the endpoint's accepted values are then
// compared against ground truth year by year.
func RunBridge(cfg BridgeConfig) *BridgeOutcome {
	if cfg.Sensors <= 0 || cfg.ReportInterval <= 0 {
		panic("core: incomplete bridge config")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = sim.Years(cfg.Structure.ServiceLifeYears() + 5)
	}
	src := rng.New(cfg.Seed)
	eng := sim.NewEngine()
	store := cloud.NewStore(cloud.StaticKeys(masterSecret))
	out := &BridgeOutcome{Config: cfg, Horizon: cfg.Horizon}

	years := int(sim.ToYears(cfg.Horizon)) + 1
	sumByYear := make([]float64, years)
	cntByYear := make([]int, years)

	devSrc := src.Split("devices")
	noise := src.Split("sensor-noise")
	harv := structureHarvester{s: cfg.Structure, electrodeCM2: 100, cellVolts: 0.5}

	devices := make([]*device.Device, cfg.Sensors)
	for i := 0; i < cfg.Sensors; i++ {
		id := lpwan.EUIFromUint64(0x0B00000000000000 | uint64(i))
		dcfg := device.Config{
			ID:             id,
			Class:          device.ClassHarvesting,
			Sensor:         telemetry.SensorConcreteEMI,
			ReportInterval: cfg.ReportInterval,
			Key:            telemetry.DeriveKey(masterSecret, id),
			Harvester:      harv,
			Store:          energy.SupercapStore(0.1, 1.8, 5.0, 1),
			Task:           energy.TaskCost{SenseMicroJoules: 2000, CPUMicroJoules: 3000, TxMicroJoules: 25000},
			ReadSensor: func(now time.Duration) float32 {
				// EMI index: ground truth plus small instrument noise.
				return float32(cfg.Structure.HealthIndex(now) * noise.Uniform(0.97, 1.03))
			},
		}
		d := device.New(dcfg, devSrc)
		devices[i] = d
		d.Install(eng, func(now time.Duration, wire []byte) {
			if err := store.Ingest(now, wire); err != nil {
				return
			}
			out.PacketsAccepted++
			p, _ := telemetry.Parse(wire) // the store has just parsed and verified it
			if y := int(sim.ToYears(now)); y < years {
				sumByYear[y] += float64(p.Value)
				cntByYear[y]++
			}
		})
	}

	eng.Run(cfg.Horizon)

	eol := sim.Years(cfg.Structure.ServiceLifeYears())
	for _, d := range devices {
		if d.Alive(eol) {
			out.SensorsAliveAtEOL++
		}
		out.StarvedSkips += d.Stats().SkippedEnergy
	}
	out.WeeklyUptime = store.WeeklyUptime(cfg.Horizon)
	out.HealthAtYear = make([]float64, years)
	for y := range out.HealthAtYear {
		if cntByYear[y] == 0 {
			out.HealthAtYear[y] = -1
			continue
		}
		out.HealthAtYear[y] = sumByYear[y] / float64(cntByYear[y])
	}
	return out
}
