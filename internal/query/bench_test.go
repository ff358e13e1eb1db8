package query

import (
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rng"
	"centuryscale/internal/sim"
	"centuryscale/internal/tsdb"
)

// buildCentury loads one device's full century at the paper's data rate
// (one packet per hour, with deterministic sub-hour jitter), and
// optionally folds everything but the last 30 days into rollup tiers. ~876k
// points; the rollup variant keeps ~37k buckets plus the raw tail.
func buildCentury(b *testing.B, fold bool) (*Engine, lpwan.EUI64, time.Duration) {
	b.Helper()
	db, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dev := lpwan.EUIFromUint64(0xCE9701)
	src := rng.New(42)
	horizon := 100 * sim.Year
	var seq uint32
	for at := time.Duration(0); at < horizon; at += time.Hour {
		seq++
		jitter := time.Duration(src.Intn(int(10 * time.Minute)))
		db.Load(tsdb.Point{Device: dev, At: at + jitter, Seq: seq, Value: float32(src.Intn(100))})
	}
	eng := emptyEngine(b)
	if fold {
		wm := eng.Advance(horizon - 30*sim.Day)
		eng.Fold(db.DrainBelow(wm))
	}
	return &Engine{Src: dbSource{db: db, rollups: eng, devs: []lpwan.EUI64{dev}}}, dev, horizon
}

func benchCenturyWindows(b *testing.B, fold bool) {
	q, dev, horizon := buildCentury(b, fold)
	b.ResetTimer()
	var windows int
	var tiers TierHits
	for i := 0; i < b.N; i++ {
		it, err := q.Windows(dev, 0, horizon, sim.Week)
		if err != nil {
			b.Fatal(err)
		}
		windows = 0
		var count uint64
		for it.Next() {
			count += it.Window().Count
			windows++
		}
		tiers = it.Tiers()
		it.Close()
		if count == 0 {
			b.Fatal("century query saw no points")
		}
	}
	b.ReportMetric(float64(windows), "windows/op")
	b.ReportMetric(float64(tiers.Daily), "daily_buckets/op")
	b.ReportMetric(float64(tiers.Hourly), "hourly_buckets/op")
	b.ReportMetric(float64(tiers.Raw), "raw_points/op")
}

// BenchmarkQueryCenturyRollup is the headline read-path number: weekly
// aggregate windows over a 100-year series, answered from rollup tiers
// plus a 30-day raw tail. The acceptance bar is <10 ms per full-century
// query.
func BenchmarkQueryCenturyRollup(b *testing.B) { benchCenturyWindows(b, true) }

// BenchmarkQueryCenturyRawScan is the same query over an engine that has
// folded nothing: every window answered by scanning raw points. The ratio against
// BenchmarkQueryCenturyRollup is the read path's century dividend.
func BenchmarkQueryCenturyRawScan(b *testing.B) { benchCenturyWindows(b, false) }

// BenchmarkQueryCenturyTopGaps exercises the dashboard's device-health
// query over the same folded century.
func BenchmarkQueryCenturyTopGaps(b *testing.B) {
	q, _, horizon := buildCentury(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gaps := q.TopGaps(10, horizon); len(gaps) == 0 {
			b.Fatal("no devices ranked")
		}
	}
}
