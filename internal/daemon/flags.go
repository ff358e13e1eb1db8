package daemon

import (
	"flag"
	"net/http"
	"time"

	"centuryscale/internal/chaos"
	"centuryscale/internal/resilience"
)

// The real daemons share one resilience/chaos flag vocabulary so an
// operator tunes gatewayd, hotspotd, and routerd identically, and a
// drill rehearsed against one daemon replays against another.

// ResilienceFlags carries the queue/retry/batch knobs of one daemon's
// uplink.
type ResilienceFlags struct {
	Queue     int
	RetryBase time.Duration
	RetryMax  time.Duration
	Seed      uint64
	Batch     int
	BatchAge  time.Duration
}

// RegisterResilienceFlags declares the standard resilience flags on the
// process flag set and returns their destination.
func RegisterResilienceFlags() *ResilienceFlags {
	f := &ResilienceFlags{}
	flag.IntVar(&f.Queue, "queue", 4096, "store-and-forward queue depth (drop-oldest on overflow)")
	flag.DurationVar(&f.RetryBase, "retry-base", 200*time.Millisecond,
		"drain loop's first retry backoff, doubling per consecutive failure (full jitter)")
	flag.DurationVar(&f.RetryMax, "retry-max", 30*time.Second, "retry backoff cap (also caps a peer's Retry-After)")
	flag.Uint64Var(&f.Seed, "retry-seed", 1, "seed for retry jitter (reproducible recovery timing)")
	flag.IntVar(&f.Batch, "batch", 0,
		"packets per uplink batch frame (0 or 1 = unbatched; >1 amortizes one endpoint fsync over the frame)")
	flag.DurationVar(&f.BatchAge, "batch-age", 100*time.Millisecond,
		"max age of a pending batch frame before it is flushed part-full")
	return f
}

// Config converts the flags into a resilience.Config.
func (f *ResilienceFlags) Config() resilience.Config {
	return resilience.Config{
		BackoffBase: f.RetryBase,
		BackoffMax:  f.RetryMax,
		QueueDepth:  f.Queue,
		Seed:        f.Seed,
		BatchSize:   f.Batch,
		BatchAge:    f.BatchAge,
	}
}

// ChaosFlags carries the seeded fault-injection knobs of one daemon.
// All zero (the default) means no injection.
type ChaosFlags struct {
	Seed        uint64
	Drop        float64
	Err         float64
	Slow        float64
	OutageAfter int
	OutageLen   int

	rt *chaos.RoundTripper // built by HTTPClient; see Injector
}

// RegisterChaosFlags declares the standard chaos flags on the process
// flag set and returns their destination.
func RegisterChaosFlags() *ChaosFlags {
	f := &ChaosFlags{}
	flag.Uint64Var(&f.Seed, "chaos-seed", 0, "fault-injection seed (same seed = same fault schedule)")
	flag.Float64Var(&f.Drop, "chaos-drop", 0, "injected per-request connection-drop probability")
	flag.Float64Var(&f.Err, "chaos-err", 0, "injected per-request 503 probability")
	flag.Float64Var(&f.Slow, "chaos-slow", 0, "injected per-request slow-response probability")
	flag.IntVar(&f.OutageAfter, "chaos-outage-after", 0, "request index at which an injected outage begins")
	flag.IntVar(&f.OutageLen, "chaos-outage-len", 0, "injected outage length in requests (0 = no outage)")
	return f
}

// Enabled reports whether any injection was requested.
func (f *ChaosFlags) Enabled() bool {
	return f.Drop > 0 || f.Err > 0 || f.Slow > 0 || f.OutageLen > 0
}

// Config converts the flags into a chaos.Config.
func (f *ChaosFlags) Config() chaos.Config {
	return chaos.Config{
		Seed:        f.Seed,
		DropProb:    f.Drop,
		ErrProb:     f.Err,
		SlowProb:    f.Slow,
		OutageAfter: f.OutageAfter,
		OutageLen:   f.OutageLen,
	}
}

// HTTPClient returns an outbound client with the chaos schedule wired
// into its transport, or nil when injection is disabled (the uplink
// then uses the package's shared default client).
func (f *ChaosFlags) HTTPClient(timeout time.Duration) *http.Client {
	if !f.Enabled() {
		return nil
	}
	f.rt = chaos.NewRoundTripper(nil, f.Config())
	return &http.Client{
		Timeout:   timeout,
		Transport: f.rt,
	}
}

// Injector returns the client-side fault schedule HTTPClient built, so
// the daemon can export its counters as metrics. Nil until HTTPClient
// has run with injection enabled.
func (f *ChaosFlags) Injector() *chaos.Injector {
	if f.rt == nil {
		return nil
	}
	return f.rt.Injector()
}
