package cloud

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"centuryscale/internal/httpapi"
	"centuryscale/internal/obs"
	"centuryscale/internal/query"
)

// Query surface: the read path's public face. Three routes, all GET:
//
//	/query         windowed aggregates for one device (device, from, to,
//	               step — seconds; from/to default to [0, high water))
//	/query/uptime  weekly uptime for one device (device, horizon), or
//	               the store-wide ledger metric with no device
//	/query/gaps    top-K devices by longest no-arrival interval (k,
//	               horizon), or one device's (device, horizon)
//
// Answers come from the rollup tiers wherever the window is sealed and
// from raw points above the watermark — the response says which
// (tiers), so a dashboard (or the smoke test) can verify the cheap path
// actually engaged.

// queryObs is the query layer's instrumentation, installed by
// Server.RegisterQueryMetrics. Same atomic-pointer pattern as
// ingestObs: un-instrumented servers pay one nil check.
type queryObs struct {
	latency *obs.Histogram
}

type queryCounters struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	daily    atomic.Uint64
	hourly   atomic.Uint64
	raw      atomic.Uint64
	// exportErrors counts /export streams that hit a csv.Writer error
	// mid-stream and were aborted — the only honest signal left once
	// the 200 header is on the wire.
	exportErrors atomic.Uint64
}

// RegisterQueryMetrics exposes the query layer's counters and installs
// its latency histogram on reg under the query_ prefix.
func (s *Server) RegisterQueryMetrics(reg *obs.Registry, clock obs.Clock) {
	reg.CounterFunc("query_requests_total", "query API requests served, all routes", s.queryStats.requests.Load)
	reg.CounterFunc("query_errors_total", "query API requests refused (bad parameters or unaligned windows)", s.queryStats.errors.Load)
	reg.CounterFunc("query_tier_daily_buckets_total", "daily rollup buckets consumed answering queries", s.queryStats.daily.Load)
	reg.CounterFunc("query_tier_hourly_buckets_total", "hourly rollup buckets consumed answering queries", s.queryStats.hourly.Load)
	reg.CounterFunc("query_tier_raw_points_total", "raw points consumed answering queries", s.queryStats.raw.Load)
	reg.CounterFunc("query_export_errors_total", "CSV exports aborted mid-stream on a write error", s.queryStats.exportErrors.Load)
	s.queryObs.Store(&queryObs{
		latency: reg.Histogram("query_seconds", "wall time per query API request", nil, clock),
	})
}

func (s *Server) observeQuery(fn func() bool) {
	s.queryStats.requests.Add(1)
	o := s.queryObs.Load()
	if o == nil {
		if !fn() {
			s.queryStats.errors.Add(1)
		}
		return
	}
	start := o.latency.Now()
	ok := fn()
	o.latency.ObserveSince(start)
	if !ok {
		s.queryStats.errors.Add(1)
	}
}

// windowPayload is one window in /query's response.
type windowPayload struct {
	StartSeconds  float64 `json:"start_seconds"`
	Count         uint64  `json:"count"`
	Sum           float64 `json:"sum"`
	Mean          float64 `json:"mean"`
	Min           float32 `json:"min"`
	Max           float32 `json:"max"`
	MaxGapSeconds float64 `json:"max_gap_seconds"`
}

type tiersPayload struct {
	Daily  int `json:"daily_buckets"`
	Hourly int `json:"hourly_buckets"`
	Raw    int `json:"raw_points"`
}

type queryPayload struct {
	Device              string          `json:"device"`
	StepSeconds         float64         `json:"step_seconds"`
	FoldedBeforeSeconds float64         `json:"folded_before_seconds"`
	Tiers               tiersPayload    `json:"tiers"`
	Windows             []windowPayload `json:"windows"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.observeQuery(func() bool {
		dev, err := httpapi.ParseDevice("cloud", r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return false
		}
		step, err := httpapi.ParseSeconds("cloud", r, "step")
		if err != nil || step <= 0 {
			http.Error(w, "cloud: step parameter must be positive seconds", http.StatusBadRequest)
			return false
		}
		from, to, err := httpapi.ParseRange("cloud", r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return false
		}
		// Unlike /history, unbounded sides are concrete here: windows
		// are a grid, so default to [0, high water].
		if from == math.MinInt64 {
			from = 0
		}
		if to == math.MaxInt64 {
			to = s.store.HighWater() + 1 // half-open: include the newest point
		}
		eng := s.store.QueryEngine()
		it, err := eng.Windows(dev, from, to, step)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return false
		}
		defer it.Close()
		out := queryPayload{
			Device:              dev.String(),
			StepSeconds:         step.Seconds(),
			FoldedBeforeSeconds: it.Watermark().Seconds(),
			Windows:             []windowPayload{},
		}
		for it.Next() {
			wa := it.Window()
			wp := windowPayload{
				StartSeconds:  wa.Start.Seconds(),
				Count:         wa.Count,
				Sum:           wa.Sum,
				Min:           wa.Min,
				Max:           wa.Max,
				MaxGapSeconds: wa.MaxGap.Seconds(),
			}
			if wa.Count > 0 {
				wp.Mean = wa.Sum / float64(wa.Count)
			}
			out.Windows = append(out.Windows, wp)
		}
		t := it.Tiers()
		out.Tiers = tiersPayload{Daily: t.Daily, Hourly: t.Hourly, Raw: t.Raw}
		s.queryStats.daily.Add(uint64(t.Daily))
		s.queryStats.hourly.Add(uint64(t.Hourly))
		s.queryStats.raw.Add(uint64(t.Raw))
		httpapi.WriteJSON(w, out)
		return true
	})
}

type uptimePayload struct {
	Device         string  `json:"device,omitempty"`
	HorizonSeconds float64 `json:"horizon_seconds"`
	WeeklyUptime   float64 `json:"weekly_uptime"`
}

func (s *Server) handleQueryUptime(w http.ResponseWriter, r *http.Request) {
	s.observeQuery(func() bool {
		horizon, err := httpapi.ParseSeconds("cloud", r, "horizon")
		if err != nil {
			http.Error(w, "cloud: bad horizon parameter", http.StatusBadRequest)
			return false
		}
		if horizon <= 0 {
			horizon = s.store.HighWater()
		}
		out := uptimePayload{HorizonSeconds: horizon.Seconds()}
		if r.URL.Query().Get("device") != "" {
			dev, err := httpapi.ParseDevice("cloud", r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return false
			}
			out.Device = dev.String()
			out.WeeklyUptime = s.store.QueryEngine().WeeklyUptime(dev, horizon)
		} else {
			out.WeeklyUptime = s.store.WeeklyUptime(horizon)
		}
		httpapi.WriteJSON(w, out)
		return true
	})
}

type gapPayload struct {
	Device     string  `json:"device"`
	GapSeconds float64 `json:"gap_seconds"`
}

func (s *Server) handleQueryGaps(w http.ResponseWriter, r *http.Request) {
	s.observeQuery(func() bool {
		k := 10
		if v := r.URL.Query().Get("k"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(w, "cloud: k parameter must be a positive integer", http.StatusBadRequest)
				return false
			}
			k = n
		}
		horizon, err := httpapi.ParseSeconds("cloud", r, "horizon")
		if err != nil {
			http.Error(w, "cloud: bad horizon parameter", http.StatusBadRequest)
			return false
		}
		if horizon <= 0 {
			horizon = s.store.HighWater()
		}
		var gaps []query.DeviceGap
		if r.URL.Query().Get("device") != "" {
			// One device, whatever its rank: a cluster router asks this of
			// an owner whose own top k left the device out.
			dev, err := httpapi.ParseDevice("cloud", r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return false
			}
			gaps = []query.DeviceGap{{Device: dev, Gap: s.store.QueryEngine().LongestGap(dev, horizon)}}
		} else {
			gaps = s.store.QueryEngine().TopGaps(k, horizon)
		}
		out := make([]gapPayload, len(gaps))
		for i, g := range gaps {
			out[i] = gapPayload{Device: g.Device.String(), GapSeconds: g.Gap.Seconds()}
		}
		httpapi.WriteJSON(w, out)
		return true
	})
}
