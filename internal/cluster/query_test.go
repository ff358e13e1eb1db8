package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
)

// queryCluster boots a 3-node cluster with R=2, W=1 and a fake clock,
// feeds count packets for dev (one per hour of virtual arrival time,
// each after a heartbeat round, as routerd would have run in that hour),
// and returns the nodes, coordinator, and a front server on Handler().
func queryCluster(t *testing.T, dev uint64, count int) ([]*node, *Coordinator, *httptestFront, *fakeClock) {
	t.Helper()
	clock := &fakeClock{}
	nodes, c := newCluster(t, 3, 2, 1, clock.Now)
	for seq := uint32(1); seq <= uint32(count); seq++ {
		clock.Advance(time.Hour)
		c.HeartbeatOnce(context.Background())
		if err := c.Ingest(context.Background(), sealed(t, dev, seq, float32(seq))); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	return nodes, c, newFront(t, c), clock
}

// httptestFront wraps the coordinator's public handler for GETs.
type httptestFront struct {
	t   *testing.T
	url string
}

func newFront(t *testing.T, c *Coordinator) *httptestFront {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return &httptestFront{t: t, url: srv.URL}
}

func (f *httptestFront) get(path string, out any) (int, string) {
	f.t.Helper()
	resp, err := http.Get(f.url + path)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return resp.StatusCode, ""
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			f.t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode, string(raw)
}

type queryResp struct {
	Device  string `json:"device"`
	Windows []struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"windows"`
	Tiers struct {
		Raw int `json:"raw_points"`
	} `json:"tiers"`
}

func sumCounts(q queryResp) (n uint64) {
	for _, w := range q.Windows {
		n += w.Count
	}
	return
}

func TestClusterQueryProxy(t *testing.T) {
	const packets = 10
	dev := uint64(41)
	_, _, front, _ := queryCluster(t, dev, packets)
	devStr := lpwan.EUIFromUint64(dev).String()

	var q queryResp
	status, body := front.get("/query?device="+devStr+"&step=3600&from=0&to=40000", &q)
	if status != http.StatusOK {
		t.Fatalf("/query status %d: %s", status, body)
	}
	if got := sumCounts(q); got != packets {
		t.Fatalf("windows cover %d points, fed %d: %s", got, packets, body)
	}
	if q.Tiers.Raw != packets {
		t.Fatalf("tiers.raw = %d", q.Tiers.Raw)
	}

	// Parameter errors from the replica relay through as 4xx.
	if status, _ := front.get("/query?device="+devStr, nil); status != http.StatusBadRequest {
		t.Fatalf("missing step → %d", status)
	}
	if status, _ := front.get("/query?device=bogus&step=3600", nil); status != http.StatusBadRequest {
		t.Fatalf("bad device → %d", status)
	}

	var up struct {
		WeeklyUptime float64 `json:"weekly_uptime"`
	}
	if status, body := front.get("/query/uptime?device="+devStr+"&horizon=1209600", &up); status != http.StatusOK {
		t.Fatalf("/query/uptime status %d: %s", status, body)
	}
	// 10 hourly arrivals land in week 0 of a 2-week horizon.
	if up.WeeklyUptime != 0.5 {
		t.Fatalf("weekly uptime = %v", up.WeeklyUptime)
	}

	var gaps []gapEntry
	if status, body := front.get("/query/gaps?k=5&horizon=36000", &gaps); status != http.StatusOK {
		t.Fatalf("/query/gaps status %d: %s", status, body)
	}
	if len(gaps) != 1 || gaps[0].Device != devStr {
		t.Fatalf("gaps = %+v", gaps)
	}
}

// TestClusterQueryPrefersFullerReplica: when one owner holds more of
// the history (the other missed writes), the proxy serves the fuller
// answer no matter which owner it reached first.
func TestClusterQueryPrefersFullerReplica(t *testing.T) {
	const packets = 6
	dev := uint64(41)
	nodes, c, front, clock := queryCluster(t, dev, packets)
	devStr := lpwan.EUIFromUint64(dev).String()

	// Hand one owner an extra reading the other never saw (the divergence
	// a node outage leaves until read-repair closes it). The shared fake
	// clock is NOT advanced — silence past DownAfter would make the
	// detector declare every node down.
	owners := c.Ring().Owners(lpwan.EUIFromUint64(dev), 2)
	if err := nodes[owners[1]].store.Ingest(clock.Now()+time.Hour, sealed(t, dev, packets+1, 7)); err != nil {
		t.Fatal(err)
	}

	var q queryResp
	status, body := front.get("/query?device="+devStr+"&step=3600&from=0&to=40000", &q)
	if status != http.StatusOK {
		t.Fatalf("/query status %d: %s", status, body)
	}
	if got := sumCounts(q); got != packets+1 {
		t.Fatalf("proxy served %d points; fuller replica has %d", got, packets+1)
	}
}

// TestClusterQuerySurvivesOwnerLoss: with one owner gone, the other
// still answers; with both gone, the router sheds 503.
func TestClusterQuerySurvivesOwnerLoss(t *testing.T) {
	const packets = 4
	dev := uint64(41)
	nodes, c, front, _ := queryCluster(t, dev, packets)
	devStr := lpwan.EUIFromUint64(dev).String()
	owners := c.Ring().Owners(lpwan.EUIFromUint64(dev), 2)

	nodes[owners[0]].srv.Close()
	var q queryResp
	status, body := front.get("/query?device="+devStr+"&step=3600&from=0&to=40000", &q)
	if status != http.StatusOK {
		t.Fatalf("one owner down: status %d: %s", status, body)
	}
	if got := sumCounts(q); got != packets {
		t.Fatalf("surviving owner served %d of %d", got, packets)
	}

	nodes[owners[1]].srv.Close()
	if status, _ := front.get("/query?device="+devStr+"&step=3600&from=0&to=40000", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("both owners down: status %d, want 503", status)
	}
}

// TestClusterGapsIgnoreLaggingReplica: every node cuts its /query/gaps
// answer to its own top k, so a device only a lagging owner ranks would
// keep that owner's spuriously large gap. Here D's owners are nodes 0
// and 1, node 1 missed D's hours 3–7, and F (owners 0 and 2) truly has
// the largest gap. At k=1 node 0 lists only F, node 1 only D at 6 h.
// The router must ask node 0 for D's gap (1 h) before ranking, and
// answer F at 3 h.
func TestClusterGapsIgnoreLaggingReplica(t *testing.T) {
	clock := &fakeClock{}
	nodes, c := newCluster(t, 3, 2, 1, clock.Now)
	front := newFront(t, c)
	d := devOwnedBy(t, c.Ring(), 2, 0, 1)
	f := devOwnedBy(t, c.Ring(), 2, 0, 2)
	put := func(node int, dev uint64, hours ...int) {
		for i, h := range hours {
			if err := nodes[node].store.Ingest(time.Duration(h)*time.Hour, sealed(t, dev, uint32(i+1), 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, d, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	put(1, d, 1, 2, 8, 9, 10)
	put(0, f, 1, 2, 5, 6, 7, 8, 9, 10)
	put(2, f, 1, 2, 5, 6, 7, 8, 9, 10)

	var gaps []gapEntry
	if status, body := front.get("/query/gaps?k=1&horizon=39600", &gaps); status != http.StatusOK {
		t.Fatalf("/query/gaps status %d: %s", status, body)
	}
	want := []gapEntry{{Device: lpwan.EUIFromUint64(f).String(), GapSeconds: 10800}}
	if !reflect.DeepEqual(gaps, want) {
		t.Fatalf("gaps = %+v, want %+v", gaps, want)
	}
	if status, body := front.get("/query/gaps?k=2&horizon=39600", &gaps); status != http.StatusOK {
		t.Fatalf("/query/gaps status %d: %s", status, body)
	}
	want = append(want, gapEntry{Device: lpwan.EUIFromUint64(d).String(), GapSeconds: 3600})
	if !reflect.DeepEqual(gaps, want) {
		t.Fatalf("k=2: gaps = %+v, want %+v", gaps, want)
	}
}

// TestClusterGapsFindDeviceEveryOwnerCut: a device that lagging devices
// push out of every one of its owners' top k is listed by no node. Here
// D (owners 0 and 1) lags on node 0, H (owners 1 and 2) lags on node 2,
// and G (owners 0 and 2) has a real 2 h gap on both. At k=1 node 0 lists
// only D at 6 h, node 2 only H at 5 h, and node 1 only H at 1.5 h. The
// router must re-ask nodes 0 and 2 with k doubled — their k-th gap
// exceeds the merged k-th — and answer G at 2 h. The merged k-th must be
// taken after the per-device asks: before them D still reads node 0's
// 6 h, and no node's k-th gap exceeds that.
func TestClusterGapsFindDeviceEveryOwnerCut(t *testing.T) {
	clock := &fakeClock{}
	nodes, c := newCluster(t, 3, 2, 1, clock.Now)
	front := newFront(t, c)
	d := devOwnedBy(t, c.Ring(), 2, 0, 1)
	h := devOwnedBy(t, c.Ring(), 2, 1, 2)
	g := devOwnedBy(t, c.Ring(), 2, 0, 2)
	put := func(node int, dev uint64, halfHours ...int) {
		for i, hh := range halfHours {
			if err := nodes[node].store.Ingest(time.Duration(hh)*time.Hour/2, sealed(t, dev, uint32(i+1), 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, d, 2, 4, 16, 18, 20)
	put(1, d, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
	put(1, h, 2, 4, 6, 8, 10, 12, 14, 17, 20)
	put(2, h, 2, 4, 14, 16, 18, 20)
	put(0, g, 2, 4, 8, 10, 12, 14, 16, 18, 20)
	put(2, g, 2, 4, 8, 10, 12, 14, 16, 18, 20)

	var gaps []gapEntry
	if status, body := front.get("/query/gaps?k=1&horizon=39600", &gaps); status != http.StatusOK {
		t.Fatalf("/query/gaps status %d: %s", status, body)
	}
	want := []gapEntry{{Device: lpwan.EUIFromUint64(g).String(), GapSeconds: 7200}}
	if !reflect.DeepEqual(gaps, want) {
		t.Fatalf("gaps = %+v, want %+v", gaps, want)
	}
}
