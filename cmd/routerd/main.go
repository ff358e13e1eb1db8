// Command routerd is the third-party network's router: it accepts raw
// LoRaWAN uplinks POSTed by hotspots on /uplink, MIC-verifies them,
// enforces frame-counter freshness, charges the prepaid data-credit
// wallet, and forwards the decrypted 24-byte telemetry to the owner's
// endpoint.
//
//	routerd -listen :9000 -abp-master 0123456789abcdef \
//	        -endpoint http://127.0.0.1:8080 -credits 500000
//
// The ABP master must be exactly 16 bytes; device session keys derive
// from it and each frame's DevAddr. The credit balance is the paper's
// §4.4 prepayment: when it runs dry the router answers 402 and the
// hotspots stop getting paid.
//
// Delivery to the owner's endpoint rides the same resilient uplink as
// the gateways: one attempt per payload, and a bounded store-and-forward
// queue (-queue) that one backoff loop retries and SIGINT/SIGTERM flush
// before exit. The -chaos-* flags inject a seeded fault schedule into endpoint
// delivery for outage drills.
//
// With -cluster-peers the router fronts a replicated endpoint fleet
// instead of a single endpoint: each verified frame is forwarded to the
// R owner replicas of its device partition and acknowledged only after
// W durable appends (WAL-before-ack across machines); a replica the
// heartbeat detector calls down gets no write until it answers again
// (-heartbeat-every, -suspect-after; down at 3x). The router then
// also serves the cluster's public face — POST /ingest, GET /history
// (merged + read-repaired), GET /status — next to /uplink, and its
// -debug-addr /healthz aggregates per-node heartbeat state: degraded
// while any node is down, failed only when a partition has lost every
// replica.
//
//	routerd -listen :9000 -abp-master 0123456789abcdef \
//	        -cluster-peers http://n0:8080,http://n1:8080,http://n2:8080 \
//	        -replicas 2 -write-quorum 2 -cluster-secret $SECRET
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"centuryscale/internal/cluster"
	"centuryscale/internal/daemon"
	"centuryscale/internal/helium"
	"centuryscale/internal/obs"
	"centuryscale/internal/resilience"
)

func main() {
	var (
		listen   = flag.String("listen", ":9000", "HTTP listen address for hotspot uplinks")
		master   = flag.String("abp-master", "", "16-byte ABP master secret (required)")
		endpoint = flag.String("endpoint", "http://127.0.0.1:8080", "owner endpoint base URL (single-endpoint mode)")
		credits  = flag.Int64("credits", 500000, "initial data-credit balance (the $5 wallet)")
		flushFor = flag.Duration("flush-timeout", 10*time.Second, "how long shutdown waits to drain the buffer")
	)
	rf := daemon.RegisterResilienceFlags()
	cf := daemon.RegisterChaosFlags()
	clf := daemon.RegisterClusterFlags()
	of := daemon.RegisterObsFlags()
	flag.Parse()
	if len(*master) != 16 {
		log.Fatalf("routerd: -abp-master must be exactly 16 bytes, got %d", len(*master))
	}

	wallet := helium.NewWallet(*credits)
	router, err := helium.NewRouter([]byte(*master), wallet)
	if err != nil {
		log.Fatalf("routerd: %v", err)
	}
	if cf.Enabled() {
		log.Printf("routerd: chaos injection enabled (seed %d)", cf.Seed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	health := obs.NewHealth()

	// Delivery target: one endpoint, or the replicated fleet.
	var (
		inner resilience.Sender
		coord *cluster.Coordinator
	)
	if clf.Enabled() {
		coord, err = clf.Coordinator()
		if err != nil {
			log.Fatalf("routerd: %v", err)
		}
		coord.RegisterHealth(health)
		coord.RegisterMetrics(reg)
		go coord.RunHeartbeats(ctx, clf.HeartbeatEvery)
		inner = daemon.ClusterSender(coord)
		log.Printf("routerd: cluster mode, R=%d W=%d over %s", clf.Replicas, clf.WriteQuorum, clf.Peers)
	} else {
		inner = &daemon.HTTPUplink{URL: *endpoint, Client: cf.HTTPClient(10 * time.Second)}
	}
	up := resilience.NewUplink(inner, rf.Config())
	up.RegisterMetrics(reg, "router_uplink")

	handler := daemon.RouterHandler(router, up.Send)
	if coord != nil {
		// The cluster's public face rides the same listener as /uplink.
		mux := http.NewServeMux()
		mux.Handle("POST /uplink", handler)
		mux.Handle("/", coord.Handler())
		handler = mux
	}
	of.Serve(ctx, log.Printf, reg, health)

	srv := &http.Server{Addr: *listen, Handler: handler}
	var daemons sync.WaitGroup
	daemons.Add(1)
	go func() {
		defer daemons.Done()
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	target := *endpoint
	if coord != nil {
		target = "cluster " + clf.Peers
	}
	log.Printf("routerd: listening on %s, forwarding to %s, %d credits (queue %d)", *listen, target, wallet.Balance(), rf.Queue)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("routerd: %v", err)
	}
	// ListenAndServe returns when Shutdown *starts*; join the watcher so
	// Shutdown has actually drained before the flush below runs.
	stop()
	daemons.Wait()

	// In-flight uplinks are done (Shutdown waited); drain the buffer.
	flushCtx, cancel := context.WithTimeout(context.Background(), *flushFor)
	defer cancel()
	if err := up.Close(flushCtx); err != nil {
		log.Printf("routerd: shutdown flush: %v", err)
	}
	if coord != nil {
		if err := coord.Close(flushCtx); err != nil {
			log.Printf("routerd: cluster close: %v", err)
		}
		cs := coord.Stats()
		log.Printf("routerd: cluster acked=%d no-quorum=%d rejected=%d read-repaired=%d", cs.Acked, cs.NoQuorum, cs.Rejected, cs.RepairedRecords)
	}
	rs := router.Stats()
	u := up.Stats()
	log.Printf("routerd: done. delivered=%d bad-frames=%d replays=%d unfunded=%d credits-left=%d", rs.Delivered, rs.BadFrames, rs.Replays, rs.Unfunded, wallet.Balance())
	log.Printf("routerd: uplink sent=%d drained=%d buffered=%d dropped-oldest=%d", u.Sent, u.Drained, u.Buffered, u.Queue.DroppedOldest)
}
