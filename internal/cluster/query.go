package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"centuryscale/internal/httpapi"
)

// Query proxying: the router serves the same /query* routes as a single
// endpoint, so dashboards need no cluster awareness.
//
// Device-scoped queries (/query, /query/uptime?device=...) go to the
// device's owner replicas; among the live answers the coordinator picks
// the most complete one — the replica whose windows cover the most
// points (respectively the highest uptime). Replicas diverge only by
// missing suffixes (a node that was down during some writes), and
// read-repair closes those holes on the next /history; until it does,
// preferring the fuller replica is the read-side of the same policy.
//
// /query/gaps fans out to every live node (each holds only its
// partitions' devices) and merges per device by the SMALLEST gap: a
// replica that missed writes reports a spuriously large gap, and the
// union of arrivals — the truth — can only have a smaller one.

// maxQueryBody bounds a proxied response: a full-century weekly query
// is ~1 MB of JSON; 16 MB leaves room without trusting a node blindly.
const maxQueryBody = 16 << 20

func (c *Coordinator) queryRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		c.proxyDeviceQuery(w, r, "/query", scoreWindows)
	})
	mux.HandleFunc("GET /query/uptime", func(w http.ResponseWriter, r *http.Request) {
		c.proxyDeviceQuery(w, r, "/query/uptime", scoreUptime)
	})
	mux.HandleFunc("GET /query/gaps", c.handleQueryGaps)
}

// fetchQuery GETs one node's pathAndQuery, returning the status and
// (bounded) body. A transport failure is an error; any HTTP status is a
// valid answer for the caller to interpret.
func (c *Coordinator) fetchQuery(ctx context.Context, p *peer, pathAndQuery string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", p.url+pathAndQuery, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxQueryBody))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// scoreWindows ranks a /query answer by total points covered.
func scoreWindows(body []byte) (float64, error) {
	var payload struct {
		Windows []struct {
			Count uint64 `json:"count"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		return 0, err
	}
	var total uint64
	for _, w := range payload.Windows {
		total += w.Count
	}
	return float64(total), nil
}

// scoreUptime ranks a /query/uptime answer by the uptime itself.
func scoreUptime(body []byte) (float64, error) {
	var payload struct {
		WeeklyUptime float64 `json:"weekly_uptime"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		return 0, err
	}
	return payload.WeeklyUptime, nil
}

// proxyDeviceQuery forwards a device-scoped query to the device's owner
// replicas and serves the best-scoring 200 answer. A 4xx from a replica
// (bad parameters, unaligned window) is relayed as-is — the node is
// healthy, the request is wrong; only when no owner can answer at all
// does the router shed 503.
func (c *Coordinator) proxyDeviceQuery(w http.ResponseWriter, r *http.Request, path string, score func([]byte) (float64, error)) {
	dev, err := httpapi.ParseDevice("cluster", r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	owners := c.ring.Owners(dev, c.cfg.Replicas)
	pathAndQuery := path + "?" + r.URL.Query().Encode()

	best := -1.0
	var bestBody []byte
	clientStatus := 0
	var clientBody []byte
	for _, node := range owners {
		if c.det.Down(node) {
			continue
		}
		status, body, err := c.fetchQuery(r.Context(), c.peers[node], pathAndQuery)
		if err != nil {
			c.det.Observe(node, false)
			continue
		}
		c.det.Observe(node, true)
		switch {
		case status == http.StatusOK:
			if s, err := score(body); err == nil && s > best {
				best, bestBody = s, body
			}
		case status >= 400 && status < 500:
			clientStatus, clientBody = status, body
		}
	}
	switch {
	case bestBody != nil:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(bestBody)
	case clientStatus != 0:
		http.Error(w, string(clientBody), clientStatus)
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("%v: device %v", ErrUnavailable, dev), http.StatusServiceUnavailable)
	}
}

type gapEntry struct {
	Device     string  `json:"device"`
	GapSeconds float64 `json:"gap_seconds"`
}

func (c *Coordinator) handleQueryGaps(w http.ResponseWriter, r *http.Request) {
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "cluster: k parameter must be a positive integer", http.StatusBadRequest)
			return
		}
		k = n
	}
	pathAndQuery := "/query/gaps?" + r.URL.Query().Encode()

	merged := make(map[string]float64)
	answered := 0
	for node := range c.peers {
		if c.det.Down(node) {
			continue
		}
		status, body, err := c.fetchQuery(r.Context(), c.peers[node], pathAndQuery)
		if err != nil {
			c.det.Observe(node, false)
			continue
		}
		c.det.Observe(node, true)
		if status != http.StatusOK {
			continue
		}
		var entries []gapEntry
		if err := json.Unmarshal(body, &entries); err != nil {
			continue
		}
		answered++
		for _, e := range entries {
			if cur, ok := merged[e.Device]; !ok || e.GapSeconds < cur {
				merged[e.Device] = e.GapSeconds
			}
		}
	}
	if answered == 0 {
		w.Header().Set("Retry-After", "1")
		http.Error(w, ErrUnavailable.Error(), http.StatusServiceUnavailable)
		return
	}
	out := make([]gapEntry, 0, len(merged))
	for dev, gap := range merged {
		out = append(out, gapEntry{Device: dev, GapSeconds: gap})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GapSeconds != out[j].GapSeconds {
			return out[i].GapSeconds > out[j].GapSeconds
		}
		return out[i].Device < out[j].Device
	})
	if len(out) > k {
		out = out[:k]
	}
	httpapi.WriteJSON(w, out)
}
