// Command endpointd is the public data endpoint of the experiment: the
// centurysensors.com piece. It accepts raw 24-byte telemetry packets on
// POST /ingest, verifies and deduplicates them, and publishes the living
// status page on GET /.
//
//	endpointd -listen :8080 -master fleet-master-secret \
//	          -data-dir /var/lib/century/tsdb -shards 16 -wal-fsync always \
//	          -snapshot /var/lib/century/store.json -save-every 10m
//
//	endpointd -snapshot /var/lib/century/store.json -retain-raw 720h \
//	          -export-json /tmp/century-export.json
//
// Device keys are derived from the fleet master secret and each device's
// EUI-64, so the endpoint needs no per-device database.
//
// Storage plays two complementary roles. With -data-dir set, every
// accepted reading is appended to the write-ahead log all shards share
// and flushed before it is acknowledged (fsync per -wal-fsync), so a
// crash or kill loses zero acknowledged readings. With -snapshot set, a
// checkpoint is taken every -save-every and on clean shutdown: a small
// JSON manifest at that path and binary segments in <path>.d/ beside it
// (sealed rollup buckets, appended once and never rewritten, and the raw
// window), committed by the manifest's rename; each committed checkpoint
// truncates the WAL segments it covers, and costs what changed since the
// last, not the age of the archive. Boot loads the manifest and the
// files it names — or a JSON snapshot an older build left at the path,
// which the next checkpoint replaces — then replays the WAL over it.
// Run with both for a bounded WAL; -data-dir alone is fully durable but
// replays the whole WAL at boot; -snapshot alone restores the old
// checkpoint-interval loss window.
//
// The portable artifact — versioned JSON a 2060 operator can read with
// whatever tools exist then — is an export, made on demand: -export-json
// F loads whatever -snapshot (and -data-dir) hold, writes the JSON
// snapshot to F and exits without listening. Pass the same -retain-raw
// and -rollup-* flags the archive was written under.
//
// With -retain-raw set, storage becomes tiered: at every checkpoint,
// points older than the retention window are folded into hourly/daily
// aggregate buckets (-rollup-hourly / -rollup-daily) and their raw
// copies dropped — the century-scale read path. GET /query answers
// windowed aggregates from the tiers, /query/uptime weekly uptime, and
// /query/gaps the top-K silent devices; all three report which tier
// served them.
//
// The endpoint degrades gracefully instead of failing opaquely: more
// than -max-inflight concurrent ingests, a failing snapshot disk, or a
// failing WAL disk turn into 503 + Retry-After so resilient gateways
// buffer and retry rather than lose data. The -chaos-* flags wrap the
// whole server in a seeded fault schedule for overload drills.
//
// As a member of a replicated endpoint fleet (see routerd
// -cluster-peers), -cluster-secret arms the intra-cluster surface:
// /cluster/history and /cluster/replicate for read-repair, plus the
// coordinator's arrival-stamp override so every replica stores the same
// arrival time for a packet. Unset (the default), those routes 404.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"centuryscale/internal/chaos"
	"centuryscale/internal/cloud"
	"centuryscale/internal/daemon"
	"centuryscale/internal/obs"
	"centuryscale/internal/rollup"
	"centuryscale/internal/tsdb"
)

// exportJSON writes the store's portable JSON snapshot to path, durably.
func exportJSON(store *cloud.Store, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = store.WriteSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

func main() {
	var (
		listen     = flag.String("listen", ":8080", "HTTP listen address")
		master     = flag.String("master", "", "fleet master secret (required)")
		snapshot   = flag.String("snapshot", "", "checkpoint manifest path; its segment files live in <path>.d/ (optional; a JSON snapshot found there is loaded and replaced)")
		exportTo   = flag.String("export-json", "", "load -snapshot (and -data-dir), write the portable JSON snapshot to this file, and exit without listening")
		saveEvery  = flag.Duration("save-every", 10*time.Minute, "checkpoint interval when -snapshot is set")
		dataDir    = flag.String("data-dir", "", "storage directory for the sharded WAL (optional; enables crash-safe ingest)")
		shards     = flag.Int("shards", 16, "in-memory storage shard count (ingest concurrency; all shards share one WAL)")
		walFsync   = flag.String("wal-fsync", "always", "WAL fsync policy: always | interval | never")
		walSyncEv  = flag.Duration("wal-sync-every", time.Second, "fsync cadence under -wal-fsync interval")
		rollupHr   = flag.Duration("rollup-hourly", time.Hour, "rollup fine-tier bucket width")
		rollupDay  = flag.Duration("rollup-daily", 24*time.Hour, "rollup coarse-tier bucket width (multiple of -rollup-hourly)")
		retainRaw  = flag.Duration("retain-raw", 0, "tiered retention: fold points older than this into rollup buckets at each checkpoint and drop the raw copies (0 = rollups off)")
		maxInFl    = flag.Int("max-inflight", 256, "max concurrent ingests before shedding 503 (0 = unlimited)")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed responses")
		clusterSec = flag.String("cluster-secret", "", "shared secret arming the intra-cluster routes (/cluster/*) and coordinator arrival stamps")
	)
	cf := daemon.RegisterChaosFlags()
	of := daemon.RegisterObsFlags()
	flag.Parse()
	if *master == "" && *exportTo == "" {
		log.Fatal("endpointd: -master is required")
	}
	if *retainRaw > 0 && *snapshot == "" {
		log.Fatal("endpointd: -retain-raw needs -snapshot (the fold runs at each checkpoint)")
	}

	keys := cloud.StaticKeys([]byte(*master))
	var store *cloud.Store
	if *dataDir != "" {
		policy, err := tsdb.ParseSyncPolicy(*walFsync)
		if err != nil {
			log.Fatalf("endpointd: %v", err)
		}
		db, err := tsdb.Open(tsdb.Options{
			Dir:       *dataDir,
			Shards:    *shards,
			Sync:      policy,
			SyncEvery: *walSyncEv,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatalf("endpointd: opening %s: %v", *dataDir, err)
		}
		store = cloud.NewStoreWithDB(keys, db)
	} else {
		store = cloud.NewStore(keys)
	}

	// Rollups must be enabled before the checkpoint loads: the loader
	// restores bucket state into the engine (and refuses one whose tier
	// geometry differs — summarized buckets cannot be re-cut).
	if *retainRaw > 0 {
		cfg := rollup.Config{Hourly: *rollupHr, Daily: *rollupDay}
		if err := store.EnableRollups(cfg, *retainRaw); err != nil {
			log.Fatalf("endpointd: %v", err)
		}
		log.Printf("endpointd: tiered rollups on (hourly %v, daily %v, raw retention %v)", *rollupHr, *rollupDay, *retainRaw)
	}

	// Boot: the checkpoint first, then the WAL on top (the readings
	// accepted since that checkpoint).
	if *snapshot != "" {
		if err := store.LoadFile(*snapshot); err != nil {
			log.Fatalf("endpointd: restoring %s: %v", *snapshot, err)
		}
		li := store.LastLoad()
		log.Printf("endpointd: restored %d readings from %s: format version %d, %d sealed segments holding %d buckets in %v, %d tail points read in %v and loaded in %v",
			store.Count(), *snapshot, li.Version, li.Segments, li.Buckets, li.SealedTime.Round(time.Microsecond),
			li.TailPoints, li.TailTime.Round(time.Microsecond), li.InstallTime.Round(time.Microsecond))
	}
	if *dataDir != "" {
		begin := time.Now()
		rs, err := store.ReplayWAL()
		if err != nil {
			log.Fatalf("endpointd: WAL replay: %v", err)
		}
		log.Printf("endpointd: WAL replay: %d points, %d applied, %d corrupt frames tolerated in %v (shards %d, fsync %s)",
			rs.Records, rs.Kept, rs.Corruptions, time.Since(begin).Round(time.Millisecond), *shards, *walFsync)
	}

	if *exportTo != "" {
		if err := exportJSON(store, *exportTo); err != nil {
			log.Fatalf("endpointd: exporting to %s: %v", *exportTo, err)
		}
		log.Printf("endpointd: exported %d readings to %s", store.Count(), *exportTo)
		if err := store.Close(); err != nil {
			log.Printf("endpointd: storage close: %v", err)
		}
		return
	}

	server := cloud.NewServer(store, time.Now())
	server.SetIngestLimit(*maxInFl)
	server.SetRetryAfter(*retryAfter)
	if *clusterSec != "" {
		server.SetClusterSecret(*clusterSec)
		log.Printf("endpointd: cluster routes armed")
	}

	reg := obs.NewRegistry()
	store.RegisterMetrics(reg, nil)
	store.DB().RegisterMetrics(reg)
	server.RegisterQueryMetrics(reg, nil)

	var handler http.Handler = server
	if cf.Enabled() {
		log.Printf("endpointd: chaos injection enabled (seed %d)", cf.Seed)
		in := chaos.NewInjector(cf.Config())
		in.RegisterMetrics(reg, "chaos")
		handler = chaos.HandlerWith(handler, in)
	}

	health := obs.NewHealth()
	health.Register("ingest", func() error {
		if server.Degraded() {
			return errors.New("checkpointing failing; shedding ingest")
		}
		return nil
	})

	// Degraded, not failed, while the WAL cannot flush: reads are served
	// and ingest answers 503 until a retry succeeds.
	health.Register("wal", store.DB().Health)

	srv := &http.Server{Addr: *listen, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	of.Serve(ctx, log.Printf, reg, health)

	// Every daemon goroutine joins here before the final checkpoint: a
	// checkpoint racing a still-running ticker (or Shutdown's drain)
	// could snapshot mid-write state.
	var daemons sync.WaitGroup

	if *snapshot != "" {
		daemons.Add(1)
		go func() {
			defer daemons.Done()
			tick := time.NewTicker(*saveEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					// Checkpoint = fold what left the raw window, write
					// the delta, truncate the WAL behind the commit. A
					// failure degrades the server: it can't persist what
					// it accepts, so it sheds until the disk recovers and
					// gateways buffer instead.
					was := server.Degraded()
					if err := server.Checkpoint(*snapshot); err != nil {
						log.Printf("endpointd: checkpoint: %v (degrading ingest)", err)
					} else if was {
						log.Printf("endpointd: checkpoint recovered; accepting ingest again")
					}
				}
			}
		}()
	}

	daemons.Add(1)
	go func() {
		defer daemons.Done()
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	log.Printf("endpointd: listening on %s (max-inflight %d)", *listen, *maxInFl)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("endpointd: %v", err)
	}
	// ListenAndServe returns when Shutdown *starts*; wait for the drain
	// (and the tickers) to finish before the final checkpoint touches
	// the store.
	stop()
	daemons.Wait()
	if *snapshot != "" {
		if err := server.Checkpoint(*snapshot); err != nil {
			log.Fatalf("endpointd: final checkpoint: %v", err)
		}
		log.Printf("endpointd: saved %d readings to %s", store.Count(), *snapshot)
	}
	if err := store.Close(); err != nil {
		log.Printf("endpointd: storage close: %v", err)
	}
	log.Printf("endpointd: shed %d ingests while degraded/overloaded", server.Shed())
}
