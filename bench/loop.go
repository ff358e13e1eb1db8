package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// newConnClient returns a client that owns exactly one keep-alive
// connection: one gateway, or one dashboard user.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// frameLoop is one gateway's closed loop over its pre-sealed frames: it
// sends the next frame only after the previous one was acknowledged.
type frameLoop struct {
	client *http.Client
	url    string // the /ingest/batch URL
	pool   *framePool
	next   int // next unsent frame
	// acceptedIn reads the accepted-packet count out of a 2xx body.
	// endpointd answers with a BatchResult; routerd's 202 has no body and
	// means the whole frame reached its quorum.
	acceptedIn func(body []byte) (int, error)
}

func endpointAccepted(body []byte) (int, error) {
	var res struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, fmt.Errorf("decoding batch result %q: %w", firstLine(body), err)
	}
	return res.Accepted, nil
}

func routerAccepted([]byte) (int, error) { return framePackets, nil }

// loopStats is what one phase of one loop produced.
type loopStats struct {
	began, ended time.Time
	attempted    int
	failed       int
	accepted     int     // packets in 2xx-acknowledged requests
	done         []timed // per acknowledged request, at = seconds since began
	exhausted    bool    // the pool ran dry before the deadline
	firstErr     error
}

// run sends frames from start until the deadline (no new request starts
// after it) or until the pool is exhausted.
func (l *frameLoop) run(start, until time.Time) loopStats {
	st := loopStats{began: start}
	for {
		sent := time.Now()
		if !sent.Before(until) {
			break
		}
		if l.next >= l.pool.n {
			st.exhausted = true
			break
		}
		frame := l.pool.frame(l.next)
		l.next++
		st.attempted++
		accepted, err := l.post(frame)
		done := time.Now()
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		st.accepted += accepted
		st.done = append(st.done, timed{at: done.Sub(start).Seconds(), ms: float64(done.Sub(sent)) / float64(time.Millisecond)})
	}
	st.ended = time.Now()
	return st
}

func (l *frameLoop) post(frame []byte) (int, error) {
	resp, err := l.client.Post(l.url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("POST %s: %s: %s", l.url, resp.Status, firstLine(body))
	}
	return l.acceptedIn(body)
}

// mergeLoops combines loops that ran one phase side by side from a
// common start; the phase ends when the last of them does.
func mergeLoops(parts []loopStats) loopStats {
	out := loopStats{began: parts[0].began, ended: parts[0].ended}
	for _, p := range parts {
		if p.ended.After(out.ended) {
			out.ended = p.ended
		}
		out.attempted += p.attempted
		out.failed += p.failed
		out.accepted += p.accepted
		out.done = append(out.done, p.done...)
		out.exhausted = out.exhausted || p.exhausted
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// seconds is the phase's actual length. A pool that ran dry ends the
// phase early, and every rate is computed over this, not over the
// requested length.
func (s loopStats) seconds() float64 { return s.ended.Sub(s.began).Seconds() }

// latencies is every acknowledged request's latency.
func (s loopStats) latencies() []float64 {
	out := make([]float64, len(s.done))
	for i, d := range s.done {
		out[i] = d.ms
	}
	return out
}

// perSecond counts the requests completed in each whole second of the
// phase, for the progress log.
func (s loopStats) perSecond() []int {
	out := make([]int, int(s.seconds()))
	for _, d := range s.done {
		if i := int(d.at); i < len(out) {
			out[i]++
		}
	}
	return out
}

// Open loops. A schedule fixes when each request is due; the loop issues
// them one at a time on its single connection and times each from its
// due time, so a stall charges its delay to every request it made wait.

// openOutcome is one scheduled request's result.
type openOutcome struct {
	latencyMs float64 // due time to full response
	lagMs     float64 // due time to actual send: how late the generator ran
	err       error
}

// runOpenLoop issues n requests. due(i) is request i's offset from
// start; do(i) performs it. now and sleep are injectable so a test can
// stall the loop on a fake clock.
func runOpenLoop(n int, start time.Time, due func(i int) time.Duration, do func(i int) error,
	now func() time.Time, sleep func(time.Duration)) []openOutcome {
	out := make([]openOutcome, n)
	for i := 0; i < n; i++ {
		dueAt := start.Add(due(i))
		if wait := dueAt.Sub(now()); wait > 0 {
			sleep(wait)
		}
		sent := now()
		err := do(i)
		done := now()
		out[i] = openOutcome{
			latencyMs: float64(done.Sub(dueAt)) / float64(time.Millisecond),
			lagMs:     float64(sent.Sub(dueAt)) / float64(time.Millisecond),
			err:       err,
		}
	}
	return out
}

// drain reads and closes a response body, returning it.
func drain(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, err
}
