package concrete

import (
	"math"
	"testing"

	"centuryscale/internal/sim"
)

func TestCuringCurve(t *testing.T) {
	b := Bridge()
	if s := b.StrengthMPa(0); s != 0 {
		t.Fatalf("strength at pour = %v", s)
	}
	// ACI hyperbolic: at 28 days, d/(4+0.85d) = 28/27.8 ≈ 1.007 of S28.
	at28 := b.StrengthMPa(28 * sim.Day)
	if math.Abs(at28-b.DesignStrengthMPa)/b.DesignStrengthMPa > 0.05 {
		t.Fatalf("28-day strength = %v, want ~%v", at28, b.DesignStrengthMPa)
	}
	// Monotone through curing.
	if b.StrengthMPa(3*sim.Day) >= b.StrengthMPa(14*sim.Day) {
		t.Fatal("curing not monotone")
	}
}

func TestChlorideProfile(t *testing.T) {
	b := Bridge()
	// Surface concentration at depth 0.
	if c := b.ChlorideAt(0, sim.Years(1)); math.Abs(c-b.SurfaceChloride) > 1e-9 {
		t.Fatalf("surface chloride = %v", c)
	}
	// Decreasing with depth, increasing with time.
	if b.ChlorideAt(20, sim.Years(10)) <= b.ChlorideAt(60, sim.Years(10)) {
		t.Fatal("chloride not decreasing with depth")
	}
	if b.ChlorideAt(40, sim.Years(10)) >= b.ChlorideAt(40, sim.Years(40)) {
		t.Fatal("chloride not increasing with time")
	}
	if c := b.ChlorideAt(40, 0); c != 0 {
		t.Fatalf("chloride before exposure = %v", c)
	}
}

func TestPaperServiceLives(t *testing.T) {
	// §1: road median service life 25 years, bridge 50 years.
	bridge := Bridge().ServiceLifeYears()
	road := RoadDeck().ServiceLifeYears()
	if bridge < 45 || bridge > 58 {
		t.Fatalf("bridge service life = %v years, paper cites 50", bridge)
	}
	if road < 20 || road > 30 {
		t.Fatalf("road service life = %v years, paper cites 25", road)
	}
	if road >= bridge {
		t.Fatal("roads must wear out before bridges")
	}
}

func TestInitiationConsistent(t *testing.T) {
	// At the computed initiation time the chloride at rebar depth equals
	// the threshold.
	b := Bridge()
	ti := b.InitiationYears()
	c := b.ChlorideAt(b.CoverMM, sim.Years(ti))
	if math.Abs(c-b.ThresholdChloride) > 1e-6 {
		t.Fatalf("chloride at initiation = %v, want threshold %v", c, b.ThresholdChloride)
	}
}

func TestInitiationUnreachable(t *testing.T) {
	s := Bridge()
	s.ThresholdChloride = s.SurfaceChloride + 1
	if !math.IsInf(s.InitiationYears(), 1) {
		t.Fatal("unreachable threshold must never initiate")
	}
	if !math.IsInf(s.ServiceLifeYears(), 1) {
		t.Fatal("service life should be infinite without initiation")
	}
	if s.SectionLossUM(sim.Years(100)) != 0 {
		t.Fatal("loss accrued without initiation")
	}
}

func TestSectionLossRate(t *testing.T) {
	b := Bridge()
	init := b.InitiationYears()
	// No loss before initiation.
	if l := b.SectionLossUM(sim.Years(init - 1)); l != 0 {
		t.Fatalf("loss before initiation = %v", l)
	}
	// Faraday: 1 µA/cm² = 11.6 µm/year.
	l := b.SectionLossUM(sim.Years(init + 10))
	if math.Abs(l-116) > 1 {
		t.Fatalf("10-year loss = %v µm, want ~116", l)
	}
}

func TestHealthIndexLifecycle(t *testing.T) {
	b := Bridge()
	// Rises during curing...
	if b.HealthIndex(sim.Day) >= b.HealthIndex(60*sim.Day) {
		t.Fatal("health not rising during curing")
	}
	// ...holds near 1 mid-life...
	if h := b.HealthIndex(sim.Years(20)); h < 0.95 {
		t.Fatalf("mid-life health = %v", h)
	}
	// ...and declines to 0 at end of service life.
	eol := b.ServiceLifeYears()
	if h := b.HealthIndex(sim.Years(eol)); h > 0.01 {
		t.Fatalf("end-of-life health = %v", h)
	}
	if h := b.HealthIndex(sim.Years(eol + 20)); h != 0 {
		t.Fatalf("post-EOL health = %v", h)
	}
}

func TestHarvestPower(t *testing.T) {
	b := Bridge()
	// Active corrosion: 1 µA/cm² × 100 cm² × 0.5 V = 50 µW — the design
	// point the paper's ambient-battery work targets.
	active := b.HarvestMicroWatts(100, 0.5, sim.Years(b.InitiationYears()+5))
	if math.Abs(active-50) > 1e-9 {
		t.Fatalf("active harvest = %v µW", active)
	}
	// Passive (pre-initiation): about a tenth.
	passive := b.HarvestMicroWatts(100, 0.5, sim.Years(1))
	if math.Abs(passive-5) > 1e-9 {
		t.Fatalf("passive harvest = %v µW", passive)
	}
}

func TestHarvestPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	Bridge().HarvestMicroWatts(0, 0.5, 0)
}

// TestInitiationImmediate: a threshold at or below zero chloride is
// reached the moment the structure exists, never NaN.
func TestInitiationImmediate(t *testing.T) {
	for _, th := range []float64{0, -0.1} {
		s := Bridge()
		s.ThresholdChloride = th
		if got := s.InitiationYears(); got != 0 {
			t.Fatalf("threshold %v: initiation %v years, want 0", th, got)
		}
	}
}

func TestHealthMonotoneDeclineAfterInitiation(t *testing.T) {
	r := RoadDeck()
	init := r.InitiationYears()
	prev := r.HealthIndex(sim.Years(init))
	for y := init + 1; y < r.ServiceLifeYears(); y++ {
		h := r.HealthIndex(sim.Years(y))
		if h > prev {
			t.Fatalf("health rose after initiation at year %v", y)
		}
		prev = h
	}
}

func BenchmarkHealthIndex(b *testing.B) {
	s := Bridge()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.HealthIndex(sim.Years(25))
	}
}
