package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// metricSet is one scrape of a daemon's Prometheus text exposition:
// sample name to value. Histograms contribute only their _sum and
// _count series — the two a mean is computed from — because bucket lines
// carry labels this benchmark has no use for.
type metricSet map[string]float64

// parseMetrics reads the text exposition format. Comment lines and
// labelled series are skipped; a malformed value is an error, not a
// silent zero, because every number read here ends up in a reported
// metric.
func parseMetrics(text []byte) (metricSet, error) {
	out := make(metricSet)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		if strings.ContainsRune(name, '{') {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta returns after minus before for every series in after. A series
// absent from before counts from zero, which is what a counter
// registered later in the daemon's life means.
func (after metricSet) delta(before metricSet) metricSet {
	out := make(metricSet, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// histMean is a histogram's mean over a delta: Δ_sum / Δ_count, zero when
// nothing was observed.
func (d metricSet) histMean(name string) float64 {
	n := d[name+"_count"]
	if n == 0 {
		return 0
	}
	return d[name+"_sum"] / n
}

// add sums another set into m, for totals over several daemons.
func (m metricSet) add(o metricSet) {
	for name, v := range o {
		m[name] += v
	}
}

// scrapeMetrics fetches and parses one daemon's /metrics.
func scrapeMetrics(client *http.Client, debugURL string) (metricSet, error) {
	resp, err := client.Get(debugURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s/metrics returned %s", debugURL, resp.Status)
	}
	return parseMetrics(body)
}
