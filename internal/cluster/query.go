package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"centuryscale/internal/httpapi"
	"centuryscale/internal/lpwan"
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
// union of arrivals — the truth — can only have a smaller one. Each node
// cuts its answer to its own top k, so the router also asks every owner
// that left a listed device out for that device's gap before it ranks,
// and re-asks with k doubled every node whose k-th gap still exceeds the
// merged k-th: a device that every owner cut is otherwise never seen.

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
			continue
		}
		c.det.Heard(node)
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

// kthLargest returns the k-th largest gap in merged, or -1 when it holds
// fewer than k devices.
func kthLargest(merged map[string]float64, k int) float64 {
	if len(merged) < k {
		return -1
	}
	gaps := make([]float64, 0, len(merged))
	for _, g := range merged {
		gaps = append(gaps, g)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(gaps)))
	return gaps[k-1]
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
	q := r.URL.Query()
	merged := make(map[string]float64)
	merge := func(entries []gapEntry) {
		for _, e := range entries {
			if cur, ok := merged[e.Device]; !ok || e.GapSeconds < cur {
				merged[e.Device] = e.GapSeconds
			}
		}
	}
	// listed[node] holds the devices node ranked (nil if it did not
	// answer) and asked[node] how many it was asked for. A node that
	// listed all it was asked for may hold more; floor[node], its
	// smallest listed gap, bounds every device it left out.
	listed := make([]map[string]bool, len(c.peers))
	asked := make([]int, len(c.peers))
	floor := make([]float64, len(c.peers))
	ask := func(node, n int) bool {
		floor[node] = -1 // re-ask no more unless this answer is full
		q.Set("k", strconv.Itoa(n))
		entries, ok := c.fetchGaps(r.Context(), node, q)
		if !ok {
			return false
		}
		asked[node] = n
		listed[node] = make(map[string]bool, len(entries))
		for _, e := range entries {
			listed[node][e.Device] = true
		}
		if len(entries) == n { // ranked largest first
			floor[node] = entries[n-1].GapSeconds
		}
		merge(entries)
		return true
	}
	answered := 0
	for node := range c.peers {
		if ask(node, k) {
			answered++
		}
	}
	if answered == 0 {
		w.Header().Set("Retry-After", "1")
		http.Error(w, ErrUnavailable.Error(), http.StatusServiceUnavailable)
		return
	}
	resolved := make(map[string]bool)
	for {
		// A device that only a lagging owner ranked carries that owner's
		// gap: ask each answering owner that cut it for its own (F16).
		for dev := range merged {
			if resolved[dev] {
				continue
			}
			resolved[dev] = true
			id, err := lpwan.ParseEUI64(dev)
			if err != nil {
				continue
			}
			dq := maps.Clone(q)
			dq.Set("device", dev)
			for _, node := range c.ring.Owners(id, c.cfg.Replicas) {
				if listed[node] == nil || listed[node][dev] {
					continue
				}
				if entries, ok := c.fetchGaps(r.Context(), node, dq); ok {
					merge(entries)
				}
			}
		}
		// A device a node cut has at most the node's floor there, so
		// while a full node's floor exceeds the merged k-th gap, a device
		// it cut could still rank: re-ask it with k doubled. The k-th is
		// taken after the asks above, since a lagging owner's overstated
		// gap would raise it and stop the re-asks early.
		kth := kthLargest(merged, k)
		again := false
		for node := range c.peers {
			if listed[node] != nil && floor[node] > kth {
				ask(node, 2*asked[node])
				again = true
			}
		}
		if !again {
			break
		}
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

// fetchGaps asks one live node's /query/gaps under q and decodes the
// answer; ok is false if the node is down or gave no 200 list.
func (c *Coordinator) fetchGaps(ctx context.Context, node int, q url.Values) (entries []gapEntry, ok bool) {
	if c.det.Down(node) {
		return nil, false
	}
	status, body, err := c.fetchQuery(ctx, c.peers[node], "/query/gaps?"+q.Encode())
	if err != nil {
		return nil, false
	}
	c.det.Heard(node)
	if status != http.StatusOK || json.Unmarshal(body, &entries) != nil {
		return nil, false
	}
	return entries, true
}
