package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"

	"centuryscale/internal/helium"
	"centuryscale/internal/httpapi"
)

// Hotspot plumbing: the third-party path's real datapath. A hotspot is
// deliberately dumb — it lifts LoRaWAN frames off the air (here: off a
// UDP socket) and POSTs them to the network router, which owns all
// verification, accounting, and decryption. This mirrors the §4.2
// trust split: anyone can run a hotspot; only the router holds keys and
// money.

// RouterHandler exposes a helium.Router over HTTP for hotspots to POST
// raw LoRaWAN frames to /uplink. Decrypted application payloads are
// passed to deliver (e.g. a cloud.Store ingest).
func RouterHandler(r *helium.Router, deliver func(payload []byte) error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /uplink", func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(io.LimitReader(req.Body, 1024))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		payload, err := r.HandleUplink(body)
		if err != nil {
			// The hotspot gets no credit for unverifiable or unfunded
			// traffic; 402 distinguishes "wallet dry" for operators.
			status := http.StatusUnprocessableEntity
			if errors.Is(err, helium.ErrInsufficientCredits) {
				status = http.StatusPaymentRequired
			}
			http.Error(w, err.Error(), status)
			return
		}
		if deliver != nil {
			if err := deliver(payload); err != nil {
				// Delivery problems are the owner's, not the hotspot's:
				// the frame was valid and paid for.
				w.WriteHeader(http.StatusAccepted)
				return
			}
		}
		w.WriteHeader(http.StatusAccepted)
	})
	return mux
}

// RouterUplink POSTs raw LoRaWAN frames to a network router's /uplink
// route. Like HTTPUplink it classifies failures for the resilience
// layer: network errors and 5xx are transient, while 422 (unverifiable)
// and 402 (wallet dry) are resilience.Permanent — the router saw the
// frame and refused it, so a retry earns the hotspot nothing.
type RouterUplink struct {
	// URL is the router base, e.g. "http://127.0.0.1:9000".
	URL string
	// Client defaults to a shared 10-second-timeout client.
	Client *http.Client
}

// Send implements gateway.Uplink (and resilience.Sender).
func (r *RouterUplink) Send(frame []byte) error {
	resp, err := clientOr(r.Client).Post(r.URL+"/uplink", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return fmt.Errorf("daemon: hotspot post: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	if resp.StatusCode == http.StatusAccepted {
		return nil
	}
	return httpapi.ClassifyStatus("daemon: hotspot", resp)
}
