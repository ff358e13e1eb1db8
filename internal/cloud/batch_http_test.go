package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/httpapi"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/sim"
)

func TestHTTPIngestBatch(t *testing.T) {
	_, ts := newTestServer(t)
	wires := make([][]byte, 8)
	for i := range wires {
		wires[i] = sealed(t, 0xbeef, uint32(i+1), float32(i))
	}
	frame, err := batch.AppendFrame(nil, wires...)
	if err != nil {
		t.Fatal(err)
	}

	post := func() (BatchResult, int) {
		resp, err := http.Post(ts.URL+"/ingest/batch", "application/octet-stream",
			bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res BatchResult
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
		}
		return res, resp.StatusCode
	}

	res, code := post()
	if code != http.StatusAccepted {
		t.Fatalf("batch ingest status = %d", code)
	}
	if res.Total != 8 || res.Accepted != 8 {
		t.Fatalf("first frame result = %+v", res)
	}
	// The same frame again is all duplicates — still 202, the gateway's
	// retry succeeded from its point of view.
	res, code = post()
	if code != http.StatusAccepted {
		t.Fatalf("replayed batch status = %d", code)
	}
	if res.Accepted != 0 || res.Duplicates != 8 {
		t.Fatalf("replayed frame result = %+v", res)
	}
}

func TestHTTPIngestBatchRejectsCorruptFrame(t *testing.T) {
	_, ts := newTestServer(t)
	frame, err := batch.AppendFrame(nil, sealed(t, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	frame[batch.HeaderSize] ^= 0x01 // payload flip -> CRC mismatch
	resp, err := http.Post(ts.URL+"/ingest/batch", "application/octet-stream",
		bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPIngestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		route string
		size  int
	}{
		{"/ingest", httpapi.MaxPacketBody + 1},
		{"/ingest/batch", batch.MaxFrameBytes + 1},
	}
	for _, tc := range cases {
		t.Run(tc.route, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.route, "application/octet-stream",
				bytes.NewReader(make([]byte, tc.size)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
			}
		})
	}
}

// TestClampedSecondsBoundaries pins the float->Duration conversion at
// its edges: the old code fed out-of-range float64s straight into a
// time.Duration conversion, which Go leaves implementation-defined —
// ?from=1e300 produced an arbitrary range instead of "everything".
func TestClampedSecondsBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		want  time.Duration
		isErr bool
	}{
		{"zero", "0", 0, false},
		{"one and a half", "1.5", 1500 * time.Millisecond, false},
		{"negative", "-2", -2 * time.Second, false},
		{"century", "3155760000", 3155760000 * time.Second, false},
		{"max horizon clamps", "1e300", sim.MaxHorizon, false},
		{"negative overflow clamps", "-1e300", -sim.MaxHorizon, false},
		{"positive infinity clamps", "+Inf", sim.MaxHorizon, false},
		{"negative infinity clamps", "-Inf", -sim.MaxHorizon, false},
		{"just past horizon clamps", "9.3e9", sim.MaxHorizon, false},
		{"nan rejected", "NaN", 0, true},
		{"garbage rejected", "ten", 0, true},
		{"empty rejected", "", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := httpapi.ClampedSeconds("cloud", tc.in, "from")
			if tc.isErr {
				if err == nil {
					t.Fatalf("clampedSeconds(%q) = %v, want error", tc.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("clampedSeconds(%q): %v", tc.in, err)
			}
			if got != tc.want {
				t.Fatalf("clampedSeconds(%q) = %d, want %d", tc.in, got, tc.want)
			}
		})
	}

	// The HTTP layer inherits the clamp: a cosmological ?from must widen
	// to "everything", not silently overflow into an arbitrary range.
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(sealed(t, 0xfeed, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dev := lpwan.EUIFromUint64(0xfeed).String()
	resp, err = http.Get(ts.URL + "/history?device=" + dev + "&from=-1e300&to=1e300")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped history status = %d", resp.StatusCode)
	}
	var out []httpapi.ReadingPayload
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("clamped full-range history returned %d readings, want 1", len(out))
	}
	resp, err = http.Get(ts.URL + "/history?device=" + dev + "&from=NaN")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN range status = %d, want 400", resp.StatusCode)
	}
}

// failingWriter fakes a client that hangs up mid-export: writes start
// failing after the first flush reaches it.
type failingWriter struct {
	*httptest.ResponseRecorder
	fail bool
}

func (f *failingWriter) Write(b []byte) (int, error) {
	if f.fail {
		return 0, errors.New("connection reset by peer")
	}
	return f.ResponseRecorder.Write(b)
}

func TestHTTPExportSurfacesWriteError(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(sealed(t, 0xabc, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req := httptest.NewRequest("GET", "/export?device="+lpwan.EUIFromUint64(0xabc).String(), nil)
	w := &failingWriter{ResponseRecorder: httptest.NewRecorder(), fail: true}
	aborted := func() (aborted bool) {
		defer func() {
			if r := recover(); r != nil {
				if r != http.ErrAbortHandler {
					panic(r)
				}
				aborted = true
			}
		}()
		srv.ServeHTTP(w, req)
		return false
	}()
	if !aborted {
		t.Fatal("export with failing writer completed without aborting the connection")
	}
	if got := srv.queryStats.exportErrors.Load(); got != 1 {
		t.Fatalf("exportErrors = %d, want 1", got)
	}
}
