package cloud

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

func sealedPacket(t *testing.T, master []byte, dev uint64, seq uint32) []byte {
	t.Helper()
	id := lpwan.EUIFromUint64(dev)
	wire, err := telemetry.Packet{Device: id, Seq: seq, Sensor: telemetry.SensorTemperature, Value: 1}.
		Seal(telemetry.DeriveKey(master, id))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestServerShedsWhenDegraded(t *testing.T) {
	master := []byte("shed-master")
	srv := NewServer(NewStore(StaticKeys(master)), time.Now())
	srv.SetRetryAfter(2 * time.Second)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.SetDegraded(true)
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(sealedPacket(t, master, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want 2", got)
	}
	if srv.Shed() != 1 || !srv.Degraded() {
		t.Fatalf("shed=%d degraded=%v", srv.Shed(), srv.Degraded())
	}

	// Recovery: the same packet is accepted afterwards — nothing was
	// half-ingested during degradation.
	srv.SetDegraded(false)
	resp, err = http.Post(ts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(sealedPacket(t, master, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery status = %d", resp.StatusCode)
	}

	// Shed count and degradation appear on /status.
	var st struct {
		Shed     uint64 `json:"shed"`
		Degraded bool   `json:"degraded"`
	}
	resp, err = http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shed != 1 || st.Degraded {
		t.Fatalf("status = %+v", st)
	}
}

func TestServerShedsOverload(t *testing.T) {
	master := []byte("overload-master")
	store := NewStore(StaticKeys(master))
	srv := NewServer(store, time.Now())
	srv.SetIngestLimit(1)

	// Hold the single ingest slot open with a request whose body stalls
	// until we release it.
	release := make(chan struct{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	wire := sealedPacket(t, master, 2, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr := &stallingReader{data: wire, release: release}
		req, _ := http.NewRequest("POST", ts.URL+"/ingest", pr)
		req.ContentLength = int64(len(pr.data))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait for the server's own account of the slot, not the client's:
	// that the transport has read the body's first byte says nothing
	// about whether the handler has run yet, and on a loaded host the
	// second request could otherwise win the slot.
	for deadline := time.Now().Add(10 * time.Second); srv.inFlight.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the stalled request never took the ingest slot")
		}
		time.Sleep(time.Millisecond)
	}

	// The slot is taken: a second ingest is shed with 503 + Retry-After.
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(sealedPacket(t, master, 3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overload 503 missing Retry-After")
	}
	close(release)
	wg.Wait()

	// With the slot free again, ingest succeeds.
	resp, err = http.Post(ts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(sealedPacket(t, master, 3, 2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-overload status = %d", resp.StatusCode)
	}
	if srv.Shed() != 1 {
		t.Fatalf("shed = %d", srv.Shed())
	}
}

// stallingReader serves its first byte, then blocks the rest of the body
// until released — pinning the server's ingest slot.
type stallingReader struct {
	data    []byte
	pos     int
	release chan struct{}
}

func (r *stallingReader) Read(p []byte) (int, error) {
	if r.pos == 0 && len(r.data) > 0 {
		p[0] = r.data[0]
		r.pos = 1
		return 1, nil
	}
	<-r.release
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}
