// Command gatewayd is an open gateway: it listens for link-layer frames
// on UDP and forwards device payloads to the endpoint over HTTP —
// deliberately nothing more (§3.2: gateways should act as routers and
// defer decisions to other components).
//
//	gatewayd -listen :7000 -endpoint http://127.0.0.1:8080
//
// An optional -block flag seeds the blocklist with comma-separated
// EUI-64 addresses of known-bad devices.
//
// The backhaul is resilient without ever stalling the UDP read loop:
// each payload gets one attempt, a transient failure parks it in a
// bounded store-and-forward queue (-queue), and one background loop
// retries the queue in order with a jittered backoff that grows while
// the endpoint stays down (-retry-base, capped at -retry-max).
// SIGINT/SIGTERM flush the buffer before exit. The -chaos-* flags inject a seeded fault
// schedule into the uplink for outage drills.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"centuryscale/internal/daemon"
	"centuryscale/internal/gateway"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/resilience"
)

func main() {
	var (
		listen   = flag.String("listen", ":7000", "UDP listen address for device frames")
		endpoint = flag.String("endpoint", "http://127.0.0.1:8080", "endpoint base URL")
		id       = flag.String("id", "gatewayd", "gateway identity")
		block    = flag.String("block", "", "comma-separated EUI-64 blocklist")
		flushFor = flag.Duration("flush-timeout", 10*time.Second, "how long shutdown waits to drain the buffer")
	)
	rf := daemon.RegisterResilienceFlags()
	cf := daemon.RegisterChaosFlags()
	of := daemon.RegisterObsFlags()
	flag.Parse()

	inner := &daemon.HTTPUplink{URL: *endpoint, Client: cf.HTTPClient(10 * time.Second)}
	if cf.Enabled() {
		log.Printf("gatewayd: chaos injection enabled (seed %d)", cf.Seed)
	}
	up := resilience.NewUplink(inner, rf.Config())

	gw := gateway.New(gateway.Config{ID: *id}, up)
	if *block != "" {
		for _, s := range strings.Split(*block, ",") {
			e, err := lpwan.ParseEUI64(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("gatewayd: bad blocklist entry %q: %v", s, err)
			}
			gw.Block(e)
		}
	}

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		log.Fatalf("gatewayd: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	gw.RegisterMetrics(reg)
	up.RegisterMetrics(reg, "uplink")
	if in := cf.Injector(); in != nil {
		in.RegisterMetrics(reg, "chaos")
	}
	health := obs.NewHealth()
	health.Register("uplink", func() error {
		if st := up.Stats(); st.ConsecutiveFailures > 0 {
			return fmt.Errorf("%d consecutive failures; %d payloads buffered", st.ConsecutiveFailures, st.QueueLen)
		}
		return nil
	})
	of.Serve(ctx, log.Printf, reg, health)

	log.Printf("gatewayd %s: forwarding %s -> %s (queue %d)", *id, conn.LocalAddr(), *endpoint, rf.Queue)
	if err := daemon.ServeUDP(ctx, conn, gw.HandleFrame); err != nil {
		log.Fatalf("gatewayd: %v", err)
	}

	// Clean shutdown: drain what the outage buffered before exiting.
	flushCtx, cancel := context.WithTimeout(context.Background(), *flushFor)
	defer cancel()
	if err := up.Close(flushCtx); err != nil {
		log.Printf("gatewayd: shutdown flush: %v", err)
	}
	s := gw.Stats()
	u := up.Stats()
	log.Printf("gatewayd: done. forwarded=%d malformed=%d blocked=%d uplink-errors=%d", s.Forwarded, s.DropMalformed, s.DropBlocked, s.UplinkErrors)
	log.Printf("gatewayd: uplink sent=%d drained=%d buffered=%d dropped-oldest=%d", u.Sent, u.Drained, u.Buffered, u.Queue.DroppedOldest)
}
