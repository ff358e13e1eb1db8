package cloud

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"centuryscale/internal/httpapi"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewStore(StaticKeys(master)), time.Now())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestHTTPIngestAndStatus(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(sealed(t, 1, 1, 42)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Devices != 1 || st.Stats.Accepted != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestHTTPIngestRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
		strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("garbage ingest status = %d", resp.StatusCode)
	}
}

func TestHTTPDevicesAndHistory(t *testing.T) {
	_, ts := newTestServer(t)
	for seq := uint32(1); seq <= 3; seq++ {
		resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
			bytes.NewReader(sealed(t, 0xfeed, seq, float32(seq))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/devices")
	if err != nil {
		t.Fatal(err)
	}
	var devs []string
	if err := json.NewDecoder(resp.Body).Decode(&devs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(devs) != 1 || devs[0] != "00:00:00:00:00:00:fe:ed" {
		t.Fatalf("devices = %v", devs)
	}

	resp, err = http.Get(ts.URL + "/history?device=" + devs[0])
	if err != nil {
		t.Fatal(err)
	}
	var hist []httpapi.ReadingPayload
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(hist) != 3 || hist[2].Seq != 3 || hist[2].Value != 3 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestHTTPHistoryBadDevice(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{"", "?device=nonsense"} {
		resp, err := http.Get(ts.URL + "/history" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("history%s status = %d", q, resp.StatusCode)
		}
	}
}

// TestHTTPQueryGapsOneDevice: /query/gaps with a device answers that
// device's longest gap whatever its rank, in the top-k list's shape.
func TestHTTPQueryGapsOneDevice(t *testing.T) {
	srv, ts := newTestServer(t)
	for dev, hours := range map[uint64][]int{1: {1, 2, 5}, 2: {1, 2, 3, 4, 5}} {
		for i, h := range hours {
			if err := srv.store.Ingest(time.Duration(h)*time.Hour, sealed(t, dev, uint32(i+1), 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	get := func(q string) (int, []gapPayload) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query/gaps?horizon=21600&" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []gapPayload
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	if _, top := get("k=1"); len(top) != 1 || top[0] != (gapPayload{"00:00:00:00:00:00:00:01", 10800}) {
		t.Fatalf("top 1 = %+v", top)
	}
	if _, one := get("k=1&device=00:00:00:00:00:00:00:02"); len(one) != 1 || one[0] != (gapPayload{"00:00:00:00:00:00:00:02", 3600}) {
		t.Fatalf("device 2 = %+v", one)
	}
	if status, _ := get("device=nonsense"); status != http.StatusBadRequest {
		t.Fatalf("bad device: status %d", status)
	}
}

func TestHTTPIndexPage(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "century sensors") {
		t.Fatalf("index page = %q", buf.String())
	}
}

func TestHTTPMethodRouting(t *testing.T) {
	_, ts := newTestServer(t)
	// GET on /ingest must not be routed.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		t.Fatalf("GET /ingest status = %d", resp.StatusCode)
	}
}

func TestHTTPExportCSV(t *testing.T) {
	_, ts := newTestServer(t)
	for seq := uint32(1); seq <= 2; seq++ {
		resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
			bytes.NewReader(sealed(t, 5, seq, float32(seq)*2)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/export?device=00:00:00:00:00:00:00:05")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type = %q", ct)
	}
	records, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 { // header + 2 rows
		t.Fatalf("records = %v", records)
	}
	if records[0][0] != "at_seconds" || records[2][3] != "4" {
		t.Fatalf("csv = %v", records)
	}

	// Bad device parameter.
	resp2, err := http.Get(ts.URL + "/export?device=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad device status = %d", resp2.StatusCode)
	}
}
