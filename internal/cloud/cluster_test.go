package cloud

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

func clusterGet(t *testing.T, url, secret string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if secret != "" {
		req.Header.Set(ClusterSecretHeader, secret)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestClusterRoutesDisarmedByDefault(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore(StaticKeys(master)), time.Now()))
	defer srv.Close()

	resp := clusterGet(t, srv.URL+"/cluster/history?device=00:00:00:00:00:00:00:01", "whatever")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disarmed /cluster/history = %d, want 404", resp.StatusCode)
	}
}

func TestClusterHistoryExactRoundTrip(t *testing.T) {
	store := NewStore(StaticKeys(master))
	server := NewServer(store, time.Now())
	server.SetClusterSecret("s3cret")
	srv := httptest.NewServer(server)
	defer srv.Close()

	// A value chosen to expose float mangling if records ever pass
	// through a decimal representation of seconds.
	want := Reading{At: 1234567891234567891, Packet: telemetry.Packet{
		Device: lpwan.EUIFromUint64(7), Seq: 3,
		Sensor: telemetry.SensorStrain, Value: math.Float32frombits(0x40490fdb),
		UptimeSeconds: 99,
	}}
	wire, err := want.Packet.Seal(telemetry.DeriveKey(master, want.Packet.Device))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Ingest(want.At, wire); err != nil {
		t.Fatal(err)
	}

	url := srv.URL + "/cluster/history?device=" + lpwan.EUIFromUint64(7).String()
	if resp := clusterGet(t, url, "wrong"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong secret = %d, want 403", resp.StatusCode)
	}
	resp := clusterGet(t, url, "s3cret")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var recs []ClusterRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if got := recs[0].Reading(want.Packet.Device); got != want {
		t.Fatalf("round trip mangled record:\n got %+v\nwant %+v", got, want)
	}
}

func TestClusterReplicateMergesMissing(t *testing.T) {
	dev := lpwan.EUIFromUint64(11)
	key := telemetry.DeriveKey(master, dev)

	// Source node holds seqs 1..5; target only 1..2 (it was down).
	source := NewStore(StaticKeys(master))
	target := NewStore(StaticKeys(master))
	for seq := uint32(1); seq <= 5; seq++ {
		wire, err := telemetry.Packet{Device: dev, Seq: seq, Sensor: telemetry.SensorStrain, Value: float32(seq)}.Seal(key)
		if err != nil {
			t.Fatal(err)
		}
		at := time.Duration(seq) * time.Minute
		if err := source.Ingest(at, wire); err != nil {
			t.Fatal(err)
		}
		if seq <= 2 {
			if err := target.Ingest(at, wire); err != nil {
				t.Fatal(err)
			}
		}
	}

	server := NewServer(target, time.Now())
	server.SetClusterSecret("s3cret")
	srv := httptest.NewServer(server)
	defer srv.Close()

	payload := ReplicatePayload{Device: dev.String()}
	for _, rd := range source.History(dev) {
		payload.Records = append(payload.Records, RecordOf(rd))
	}
	body, _ := json.Marshal(payload)
	req, _ := http.NewRequest("POST", srv.URL+"/cluster/replicate", bytes.NewReader(body))
	req.Header.Set(ClusterSecretHeader, "s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate status = %d", resp.StatusCode)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["added"] != 3 {
		t.Fatalf("added = %d, want 3", out["added"])
	}

	// Byte-exact convergence.
	src, dst := source.History(dev), target.History(dev)
	if len(src) != len(dst) {
		t.Fatalf("history lengths differ: %d vs %d", len(src), len(dst))
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, src[i], dst[i])
		}
	}
	if got := target.Stats().Repaired; got != 3 {
		t.Fatalf("Repaired = %d, want 3", got)
	}

	// Idempotent: replaying the same payload adds nothing.
	if added, err := target.Repair(dev, source.History(dev)); err != nil || added != 0 {
		t.Fatalf("second repair: added=%d err=%v", added, err)
	}
}

func TestRepairKeepsReplayProtection(t *testing.T) {
	dev := lpwan.EUIFromUint64(21)
	key := telemetry.DeriveKey(master, dev)
	store := NewStore(StaticKeys(master))

	var wires [][]byte
	var recs []Reading
	for seq := uint32(1); seq <= 3; seq++ {
		p := telemetry.Packet{Device: dev, Seq: seq, Sensor: telemetry.SensorStrain, Value: float32(seq)}
		wire, err := p.Seal(key)
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, wire)
		recs = append(recs, Reading{At: time.Duration(seq) * time.Second, Packet: p})
	}
	if added, err := store.Repair(dev, recs); err != nil || added != 3 {
		t.Fatalf("repair: added=%d err=%v", added, err)
	}
	// A late duplicate of a repaired packet must still be rejected: the
	// repair advanced the replay window.
	if err := store.Ingest(time.Minute, wires[2]); err == nil {
		t.Fatal("duplicate of repaired packet accepted")
	}
	if store.Stats().Duplicates != 1 {
		t.Fatalf("Duplicates = %d", store.Stats().Duplicates)
	}
}

// TestRepairCountsWhatItStores: Accepted counts every reading the store
// holds, admitted or merged by Repair, and reads the same live, rebooted
// from the WAL alone and rebooted from a checkpoint. Repaired is the
// merged subset; the WAL does not record which readings a replica sent,
// so a reboot without a checkpoint reads it as 0.
func TestRepairCountsWhatItStores(t *testing.T) {
	dev := lpwan.EUIFromUint64(0xD2)
	fill := func() (*archiveRig, *Store) {
		r := newRig(t)
		s := r.boot()
		if err := s.Ingest(time.Second, sealed(t, 0xD1, 1, 1)); err != nil {
			t.Fatal(err)
		}
		recs := []Reading{
			{At: 2 * time.Second, Packet: telemetry.Packet{Device: dev, Seq: 1, Value: 2}},
			{At: 3 * time.Second, Packet: telemetry.Packet{Device: dev, Seq: 2, Value: 3}},
		}
		if added, err := s.Repair(dev, recs); err != nil || added != 2 {
			t.Fatalf("repair: added=%d err=%v", added, err)
		}
		return r, s
	}
	check := func(state string, s *Store, repaired uint64) {
		t.Helper()
		if st := s.Stats(); st.Accepted != 3 || st.Repaired != repaired {
			t.Errorf("%s: Accepted %d Repaired %d, want 3 and %d", state, st.Accepted, st.Repaired, repaired)
		}
	}

	r, s := fill()
	check("live", s, 2)
	s.Close()
	s = r.boot()
	check("rebooted from the WAL without a checkpoint", s, 0)
	s.Close()

	r, s = fill()
	if err := s.CheckpointAt(r.snap, s.HighWater()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = r.boot()
	check("checkpointed, then rebooted", s, 2)
	s.Close()
}

func TestIngestArrivalOverride(t *testing.T) {
	store := NewStore(StaticKeys(master))
	server := NewServer(store, time.Now())
	server.SetClusterSecret("s3cret")
	srv := httptest.NewServer(server)
	defer srv.Close()

	stamp := int64(42 * time.Hour)
	post := func(wire []byte, secret string, arrival int64) *http.Response {
		req, _ := http.NewRequest("POST", srv.URL+"/ingest", bytes.NewReader(wire))
		if secret != "" {
			req.Header.Set(ClusterSecretHeader, secret)
		}
		if arrival != 0 {
			req.Header.Set(ClusterArrivalHeader, strconv.FormatInt(arrival, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Without the secret the override is refused outright.
	if resp := post(sealed(t, 31, 1, 1), "", stamp); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated override = %d, want 403", resp.StatusCode)
	}
	if resp := post(sealed(t, 31, 1, 1), "s3cret", stamp); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("authenticated override = %d, want 202", resp.StatusCode)
	}
	h := store.History(lpwan.EUIFromUint64(31))
	if len(h) != 1 || h[0].At != time.Duration(stamp) {
		t.Fatalf("history = %+v, want At=%v", h, time.Duration(stamp))
	}
	// Plain ingest (no header) still uses the server clock.
	if resp := post(sealed(t, 31, 2, 2), "", 0); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plain ingest = %d", resp.StatusCode)
	}
	h = store.History(lpwan.EUIFromUint64(31))
	if len(h) != 2 || h[1].At == time.Duration(stamp) {
		t.Fatalf("plain ingest reused the stamp: %+v", h)
	}
}
