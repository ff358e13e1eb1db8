// Command hotspotd is a deliberately dumb third-party hotspot: it reads
// raw LoRaWAN frames from UDP and POSTs them to the network router. It
// holds no keys and makes no decisions — exactly the §4.2 trust split
// that lets anyone (including the deployment's own operator, as the
// hedge) run one.
//
//	hotspotd -listen :7100 -router http://127.0.0.1:9000
//
// Dumb does not mean lossy: each frame gets one attempt, a transient
// failure parks it in a bounded store-and-forward queue (-queue), and
// one background loop retries the queue in order with a backoff that
// grows while the router stays down. SIGINT/SIGTERM flush the buffer
// before exit. The
// -chaos-* flags inject a seeded fault schedule for outage drills.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os/signal"
	"syscall"
	"time"

	"centuryscale/internal/daemon"
	"centuryscale/internal/obs"
	"centuryscale/internal/resilience"
)

func main() {
	var (
		listen   = flag.String("listen", ":7100", "UDP listen address for LoRaWAN frames")
		router   = flag.String("router", "http://127.0.0.1:9000", "network router base URL")
		flushFor = flag.Duration("flush-timeout", 10*time.Second, "how long shutdown waits to drain the buffer")
	)
	rf := daemon.RegisterResilienceFlags()
	cf := daemon.RegisterChaosFlags()
	of := daemon.RegisterObsFlags()
	flag.Parse()

	inner := &daemon.RouterUplink{URL: *router, Client: cf.HTTPClient(10 * time.Second)}
	if cf.Enabled() {
		log.Printf("hotspotd: chaos injection enabled (seed %d)", cf.Seed)
	}
	up := resilience.NewUplink(inner, rf.Config())

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		log.Fatalf("hotspotd: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	up.RegisterMetrics(reg, "uplink")
	if in := cf.Injector(); in != nil {
		in.RegisterMetrics(reg, "chaos")
	}
	health := obs.NewHealth()
	health.Register("uplink", func() error {
		if st := up.Stats(); st.ConsecutiveFailures > 0 {
			return fmt.Errorf("%d consecutive failures; %d frames buffered", st.ConsecutiveFailures, st.QueueLen)
		}
		return nil
	})
	of.Serve(ctx, log.Printf, reg, health)

	log.Printf("hotspotd: forwarding %s -> %s (queue %d)", conn.LocalAddr(), *router, rf.Queue)
	if err := daemon.ServeUDP(ctx, conn, up.Send); err != nil {
		log.Fatalf("hotspotd: %v", err)
	}

	flushCtx, cancel := context.WithTimeout(context.Background(), *flushFor)
	defer cancel()
	if err := up.Close(flushCtx); err != nil {
		log.Printf("hotspotd: shutdown flush: %v", err)
	}
	u := up.Stats()
	log.Printf("hotspotd: done. sent=%d drained=%d buffered=%d dropped-oldest=%d rejected=%d", u.Sent, u.Drained, u.Buffered, u.Queue.DroppedOldest, u.RejectedPermanent)
}
