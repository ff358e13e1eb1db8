package httpapi

import (
	"errors"
	"math"
	"net/http"
	"testing"
	"time"

	"centuryscale/internal/resilience"
)

// TestClassifyStatusRetryAfter pins how a peer's Retry-After header
// becomes the hint the resilience layer sleeps on: whole seconds, zero
// when absent or unreadable, and saturated — never wrapped — when the
// seconds overflow a Duration.
func TestClassifyStatusRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"7", 7 * time.Second},
		{"-3", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"3000000000", 3000000000 * time.Second},
		{"9223372036", 9223372036 * time.Second},
		{"9223372037", math.MaxInt64},
		{"18446744074", math.MaxInt64}, // 2^64 ns and a bit: wraps to 0.3 s unsaturated
		{"99999999999999999999", math.MaxInt64},
		{"-99999999999999999999", 0},
	} {
		for _, code := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests} {
			resp := &http.Response{StatusCode: code, Header: http.Header{}}
			if tc.header != "" {
				resp.Header.Set("Retry-After", tc.header)
			}
			err := ClassifyStatus("test", resp)
			var ra *resilience.RetryAfterError
			if !errors.As(err, &ra) || resilience.IsPermanent(err) {
				t.Fatalf("status %d: %v, want a transient RetryAfterError", code, err)
			}
			if ra.After != tc.want {
				t.Errorf("status %d, Retry-After %q: hint %v, want %v", code, tc.header, ra.After, tc.want)
			}
		}
	}
}
