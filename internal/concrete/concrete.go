// Package concrete models the physical asset the paper's headline sensor
// lives in: reinforced concrete that cures, is attacked by chlorides,
// and eventually corrodes its rebar — while that same corrosion cell
// powers the embedded sensor (§1: a sensor "physically embedded in the
// concrete matrix of a road (median service life of 25 years) or a bridge
// (median service life of 50 years) that reports on the actual concrete
// health and powers itself — for literally as long as the structure
// lasts — off of the corrosion of the embedded rebar").
//
// Three standard civil-engineering models are composed:
//
//   - Curing: compressive strength follows the ACI hyperbolic maturity
//     curve, saturating toward the 28-day design strength.
//   - Chloride ingress: Fick's second law; corrosion initiates when the
//     chloride concentration at rebar depth crosses the threshold.
//   - Propagation: after initiation, rebar section loss accrues at a
//     rate set by the corrosion current density (Faraday's law,
//     ~11.6 µm/year per µA/cm²); the structure reaches end of service
//     life at a critical loss.
//
// The same corrosion current, multiplied by electrode area and cell
// voltage, is the sensor's harvestable power — the package exports it in
// the units internal/energy uses.
package concrete

import (
	"fmt"
	"math"
	"time"

	"centuryscale/internal/sim"
)

// Structure describes one reinforced-concrete asset.
type Structure struct {
	Name string

	// DesignStrengthMPa is the 28-day compressive strength.
	DesignStrengthMPa float64

	// CoverMM is the concrete cover over the rebar.
	CoverMM float64
	// DiffusionMM2PerYear is the chloride diffusion coefficient.
	DiffusionMM2PerYear float64
	// SurfaceChloride and ThresholdChloride are in % by cement weight.
	SurfaceChloride   float64
	ThresholdChloride float64

	// CorrosionCurrentUAcm2 is the active-corrosion current density.
	CorrosionCurrentUAcm2 float64
	// CriticalLossUM is the rebar section loss (µm) ending service life.
	CriticalLossUM float64
}

// Bridge returns a highway-bridge deck parameterisation whose median
// service life lands at the paper's ~50 years.
func Bridge() Structure {
	return Structure{
		Name:                  "bridge",
		DesignStrengthMPa:     45,
		CoverMM:               60,
		DiffusionMM2PerYear:   25,
		SurfaceChloride:       2.0, // deicing-salt exposure
		ThresholdChloride:     0.4,
		CorrosionCurrentUAcm2: 1.0,
		CriticalLossUM:        100,
	}
}

// RoadDeck returns a road-pavement parameterisation whose median service
// life lands at the paper's ~25 years: thinner cover, saltier surface.
func RoadDeck() Structure {
	return Structure{
		Name:                  "road-deck",
		DesignStrengthMPa:     35,
		CoverMM:               40,
		DiffusionMM2PerYear:   22,
		SurfaceChloride:       2.5, // direct salt application
		ThresholdChloride:     0.4,
		CorrosionCurrentUAcm2: 1.5,
		CriticalLossUM:        100,
	}
}

// StrengthMPa returns compressive strength at age t (ACI hyperbolic
// maturity: S(t) = S28 · d/(4 + 0.85·d), d in days).
func (s Structure) StrengthMPa(t time.Duration) float64 {
	d := float64(t) / float64(sim.Day)
	if d <= 0 {
		return 0
	}
	return s.DesignStrengthMPa * d / (4 + 0.85*d)
}

// ChlorideAt returns the chloride concentration (% cement weight) at
// depth mm after time t, from Fick's second law:
// C(x,t) = Cs · (1 − erf(x / (2·sqrt(D·t)))).
func (s Structure) ChlorideAt(depthMM float64, t time.Duration) float64 {
	years := sim.ToYears(t)
	if years <= 0 {
		return 0
	}
	return s.SurfaceChloride * (1 - math.Erf(depthMM/(2*math.Sqrt(s.DiffusionMM2PerYear*years))))
}

// InitiationYears returns when corrosion begins at the rebar: the time at
// which the chloride at cover depth reaches the threshold. Returns +Inf
// if the threshold is unreachable (threshold ≥ surface concentration).
func (s Structure) InitiationYears() float64 {
	if s.ThresholdChloride >= s.SurfaceChloride {
		return math.Inf(1)
	}
	// Invert: erf(u) = 1 - Cth/Cs where u = cover / (2 sqrt(D t)). A
	// threshold at or below zero is met at once; math.Erfinv would give
	// +Inf at 1 and NaN past it.
	target := 1 - s.ThresholdChloride/s.SurfaceChloride
	if target >= 1 {
		return 0
	}
	u := math.Erfinv(target)
	if u <= 0 {
		return 0
	}
	root := s.CoverMM / (2 * u)
	return root * root / s.DiffusionMM2PerYear
}

// micronsPerYearPerUAcm2 is Faraday's-law steel loss for 1 µA/cm².
const micronsPerYearPerUAcm2 = 11.6

// SectionLossUM returns accumulated rebar section loss (µm) at age t.
func (s Structure) SectionLossUM(t time.Duration) float64 {
	years := sim.ToYears(t)
	init := s.InitiationYears()
	if years <= init {
		return 0
	}
	return (years - init) * s.CorrosionCurrentUAcm2 * micronsPerYearPerUAcm2
}

// ServiceLifeYears returns initiation plus propagation to critical loss.
func (s Structure) ServiceLifeYears() float64 {
	init := s.InitiationYears()
	if math.IsInf(init, 1) {
		return math.Inf(1)
	}
	prop := s.CriticalLossUM / (s.CorrosionCurrentUAcm2 * micronsPerYearPerUAcm2)
	return init + prop
}

// HealthIndex returns the sensor observable in [0, 1]: 1 is sound,
// declining with rebar loss toward 0 at end of service life, with a
// rising segment during the first month of curing. This is the quantity
// an embedded EMI sensor tracks.
func (s Structure) HealthIndex(t time.Duration) float64 {
	curing := s.StrengthMPa(t) / s.DesignStrengthMPa
	if curing > 1 {
		curing = 1
	}
	damage := s.SectionLossUM(t) / s.CriticalLossUM
	if damage > 1 {
		damage = 1
	}
	h := curing * (1 - damage)
	if h < 0 {
		return 0
	}
	return h
}

// HarvestMicroWatts returns the power available to an embedded sensor
// from the rebar corrosion cell: current density × electrode area ×
// cell voltage. Before initiation, passive-film leakage supplies roughly
// a tenth of the active current. This feeds energy.Constant-style
// budgets.
func (s Structure) HarvestMicroWatts(electrodeCM2, cellVolts float64, t time.Duration) float64 {
	if electrodeCM2 <= 0 || cellVolts <= 0 {
		panic(fmt.Sprintf("concrete: bad harvester geometry %v cm² %v V", electrodeCM2, cellVolts))
	}
	density := s.CorrosionCurrentUAcm2
	if sim.ToYears(t) < s.InitiationYears() {
		density *= 0.1
	}
	return density * electrodeCM2 * cellVolts
}
