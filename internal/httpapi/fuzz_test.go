package httpapi

import (
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"centuryscale/internal/resilience"
	"centuryscale/internal/sim"
)

// The query parsers read whatever a client puts in the URL, and
// ClassifyStatus reads whatever header a peer sends back: untrusted bytes
// on both tiers. Each fuzzer below drives one of them with arbitrary
// input and checks what the parser promises, not merely that it returns.

func request(rawQuery string) *http.Request {
	return &http.Request{URL: &url.URL{RawQuery: rawQuery}}
}

var querySeeds = []string{
	"", "from=1&to=2", "from=-3.5", "to=1e300", "from=-1e300&to=1e300",
	"from=NaN", "to=nan", "from=Inf&to=-Inf", "from=0x1p-2", "from=1e-12",
	"from=9223372036.854775807", "from=%zz", "from=&to=", "from=1&from=x",
	"k=60", "k=NaN", "k=-1e400", "device=00:00:00:00:00:00:00:2a",
	"device=AA:BB:CC:DD:EE:FF:00:11", "device=aa-bb-cc-dd-ee-ff-00-11",
	"device=00:00:00:00:00:00:00:2", "device=zz:00:00:00:00:00:00:00",
}

// checkSeconds states the contract of one optional float-seconds
// parameter: NaN and non-numbers are refused, anything else is accepted
// clamped to ±sim.MaxHorizon.
func checkSeconds(t *testing.T, v string, got time.Duration, accepted bool) {
	t.Helper()
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(secs) {
		if accepted {
			t.Fatalf("accepted %q as %v", v, got)
		}
		return
	}
	if !accepted {
		t.Fatalf("refused %q, a number", v)
	}
	if got < -sim.MaxHorizon || got > sim.MaxHorizon || got != sim.Seconds(secs) {
		t.Fatalf("%q parsed to %v, want %v inside ±MaxHorizon", v, got, sim.Seconds(secs))
	}
}

// validSeconds reports whether checkSeconds would accept v.
func validSeconds(v string) bool {
	secs, err := strconv.ParseFloat(v, 64)
	return err == nil && !math.IsNaN(secs)
}

// FuzzParseRange: an absent bound is unbounded, a present one obeys
// checkSeconds, and the range is refused exactly when a present bound is
// not a number.
func FuzzParseRange(f *testing.F) {
	for _, s := range querySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := request(rawQuery)
		from, to, err := ParseRange("fuzz", r)
		q := r.URL.Query()
		wantErr := false
		for _, name := range []string{"from", "to"} {
			if v := q.Get(name); v != "" && !validSeconds(v) {
				wantErr = true
			}
		}
		if (err != nil) != wantErr {
			t.Fatalf("ParseRange(%q) = %v, %v, %v", rawQuery, from, to, err)
		}
		if err != nil {
			return
		}
		for _, b := range []struct {
			name    string
			got     time.Duration
			absence time.Duration
		}{{"from", from, math.MinInt64}, {"to", to, math.MaxInt64}} {
			if v := q.Get(b.name); v != "" {
				checkSeconds(t, v, b.got, true)
			} else if b.got != b.absence {
				t.Fatalf("absent %s parsed to %v", b.name, b.got)
			}
		}
	})
}

// FuzzParseSeconds: absent means 0; present obeys checkSeconds.
func FuzzParseSeconds(f *testing.F) {
	for _, s := range querySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := request(rawQuery)
		got, err := ParseSeconds("fuzz", r, "k")
		if v := r.URL.Query().Get("k"); v != "" {
			checkSeconds(t, v, got, err == nil)
		} else if got != 0 || err != nil {
			t.Fatalf("absent k parsed to %v, %v", got, err)
		}
	})
}

// FuzzParseDevice: an accepted device is the one its parameter names, up
// to hex case, and round-trips through EUI64.String.
func FuzzParseDevice(f *testing.F) {
	for _, s := range querySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := request(rawQuery)
		dev, err := ParseDevice("fuzz", r)
		if err != nil {
			return
		}
		if v := r.URL.Query().Get("device"); !strings.EqualFold(dev.String(), v) {
			t.Fatalf("device=%q parsed to %v", v, dev)
		}
		again, err := ParseDevice("fuzz", request("device="+dev.String()))
		if err != nil || again != dev {
			t.Fatalf("%v does not round-trip: %v, %v", dev, again, err)
		}
	})
}

// FuzzClassifyStatus: any Retry-After a peer sends becomes a hint that is
// never negative, is exactly the seconds it names while they fit a
// Duration, and saturates past that.
func FuzzClassifyStatus(f *testing.F) {
	for _, s := range []string{"", "0", "7", "-1", "+5", "1.5", "soon", "9223372036", "9223372037",
		"18446744074", "99999999999999999999", "Wed, 21 Oct 2015 07:28:00 GMT"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, header string) {
		resp := &http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{}}
		resp.Header.Set("Retry-After", header)
		ra, ok := ClassifyStatus("fuzz", resp).(*resilience.RetryAfterError)
		if !ok {
			t.Fatalf("503 with Retry-After %q is not a RetryAfterError", header)
		}
		if ra.After < 0 {
			t.Fatalf("Retry-After %q gave a negative hint %v", header, ra.After)
		}
		secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
		switch {
		case err == nil && secs >= 0 && secs <= math.MaxInt64/int64(time.Second):
			if ra.After != time.Duration(secs)*time.Second {
				t.Fatalf("Retry-After %q gave %v", header, ra.After)
			}
		case err == nil && secs > 0:
			if ra.After != math.MaxInt64 {
				t.Fatalf("Retry-After %q gave %v, want saturation", header, ra.After)
			}
		}
	})
}
