package cluster

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/httpapi"
	"centuryscale/internal/obs"
	"centuryscale/internal/resilience"
)

// Handler returns the router tier's public face — shaped like a single
// endpoint so gateways need no cluster awareness:
//
//	POST /ingest        raw packet; 202 only after the write quorum held it
//	POST /ingest/batch  batch frame; 202 only when every packet reached quorum
//	GET  /history       merged + read-repaired readings for one device
//	GET  /status        cluster topology, detector states, counters
//	GET  /query         windowed aggregates, proxied to the device's owners
//	GET  /query/uptime  per-device weekly uptime, proxied likewise
//	GET  /query/gaps    top-K gap devices, fanned out and merged (query.go)
//
// Mount /healthz and /metrics via obs.DebugMux with RegisterHealth /
// RegisterMetrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", c.handleIngest(httpapi.MaxPacketBody, c.Ingest))
	mux.HandleFunc("POST /ingest/batch", c.handleIngest(batch.MaxFrameBytes, c.IngestBatch))
	mux.HandleFunc("GET /history", c.handleHistory)
	mux.HandleFunc("GET /status", c.handleStatus)
	c.queryRoutes(mux)
	return mux
}

// handleIngest is the one ingest handler behind both routes; a route is
// its body cap and the coordinator entry point its body goes to. 202
// means every packet in the body reached its write quorum; anything less
// sheds the whole body back to the gateway.
func (c *Coordinator) handleIngest(limit int, ingest func(context.Context, []byte) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, release, err := httpapi.ReadBody(r.Body, limit)
		if err != nil {
			if errors.Is(err, httpapi.ErrBodyTooLarge) {
				http.Error(w, "cluster: request body exceeds limit", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		// The coordinator copies what it forwards and waits for every
		// replica send before it returns, so the buffer is free after it.
		defer release()
		c.writeIngestOutcome(w, ingest(r.Context(), body))
	}
}

func (c *Coordinator) writeIngestOutcome(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusAccepted)
	case resilience.IsPermanent(err):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	default:
		// Quorum missed: shed exactly like a degraded single endpoint,
		// propagating the replicas' own Retry-After hint upstream.
		secs := int64(1)
		var ra *resilience.RetryAfterError
		if errors.As(err, &ra) && ra.After > 0 {
			secs = int64((ra.After + time.Second - 1) / time.Second)
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}

func (c *Coordinator) handleHistory(w http.ResponseWriter, r *http.Request) {
	dev, err := httpapi.ParseDevice("cluster", r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from, to, err := httpapi.ParseRange("cluster", r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	recs, err := c.History(r.Context(), dev, from, to)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	// The single-endpoint /history shape, so a dashboard pointed at a
	// router cannot tell it from one node.
	out := make([]httpapi.ReadingPayload, len(recs))
	for i, rec := range recs {
		rd := rec.Reading(dev)
		out[i] = httpapi.ReadingOf(rd.At, rd.Packet)
	}
	httpapi.WriteJSON(w, out)
}

type nodeStatus struct {
	URL   string `json:"url"`
	State string `json:"state"`
}

type statusPayload struct {
	Nodes       []nodeStatus `json:"nodes"`
	Replicas    int          `json:"replicas"`
	WriteQuorum int          `json:"write_quorum"`
	Health      string       `json:"health"`
	Stats       Stats        `json:"stats"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	_ = c.aggregateHealth() // refresh the recorded verdict before serving it
	states := c.det.Snapshot()
	nodes := make([]nodeStatus, len(c.peers))
	for i, p := range c.peers {
		nodes[i] = nodeStatus{URL: p.url, State: states[i].String()}
	}
	httpapi.WriteJSON(w, statusPayload{
		Nodes:       nodes,
		Replicas:    c.cfg.Replicas,
		WriteQuorum: c.cfg.WriteQuorum,
		Health:      obs.Status(c.healthState.Load()).String(),
		Stats:       c.Stats(),
	})
}
