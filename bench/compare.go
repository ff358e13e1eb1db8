package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Comparing two sets of runs. A set is what -save wrote: several runs
// per workload, normally ten, on consecutive seeds. The base set is the
// parent commit (or, for the A/A acceptance check, the same commit run
// again); the other is the change.

// verdict is one metric × workload row's outcome.
type verdict string

const (
	// unchanged: the medians differ by no more than the bound and the
	// runs repeat well enough for that to mean something.
	unchanged verdict = "unchanged"
	// better: every run of the change beat every run of the base.
	better verdict = "better"
	// worse: the change's median is worse than the base's by more than
	// the bound.
	worse verdict = "WORSE"
	// unresolved: the medians are within the bound, but the spread
	// inside a set is wider than the bound, so "within the bound" is not
	// evidence of anything.
	unresolved verdict = "UNRESOLVED"
)

// row is one metric on one workload, compared.
type row struct {
	Workload   string
	Metric     metricDef
	Base, New  float64 // medians
	BaseSpread float64 // interquartile range over median, within the set
	NewSpread  float64
	BaseN      int
	NewN       int
	Verdict    verdict
}

// worseBy is how much worse the new median is than the base, as a share
// of the base, signed so that positive is worse whichever way the metric
// points.
func (r row) worseBy() float64 {
	if r.Base == 0 {
		return 0
	}
	d := (r.New - r.Base) / r.Base
	if r.Metric.Better == "higher" {
		d = -d
	}
	return d
}

// judge applies the metric's bound. set-up time is exempt from the
// spread rule: it is reported as a median of rehearsals precisely
// because single set-ups do not repeat, and only its median is gated.
func judge(m metricDef, base, cand []float64) row {
	r := row{
		Metric: m,
		Base:   newSample(base).p50(), New: newSample(cand).p50(),
		BaseSpread: spread(base), NewSpread: spread(cand),
		BaseN: len(base), NewN: len(cand),
	}
	switch {
	case r.worseBy() > m.Bound:
		r.Verdict = worse
	case allBetter(m, base, cand):
		r.Verdict = better
	case m.Name != "setup_s" && (r.BaseSpread > m.Bound || r.NewSpread > m.Bound):
		r.Verdict = unresolved
	default:
		r.Verdict = unchanged
	}
	return r
}

// allBetter reports whether every run of cand reads strictly better than
// every run of base.
func allBetter(m metricDef, base, cand []float64) bool {
	if len(base) == 0 || len(cand) == 0 {
		return false
	}
	bs, cs := newSample(base).sorted, newSample(cand).sorted
	if m.Better == "higher" {
		return cs[0] > bs[len(bs)-1]
	}
	return cs[len(cs)-1] < bs[0]
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Runs) == 0 {
		return rf, fmt.Errorf("%s: no runs", path)
	}
	return rf, nil
}

// valuesOf collects one metric's value from every run of one workload.
func valuesOf(runs []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Values[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// compareRuns judges every end-to-end metric on every workload both sets
// ran. ok is false if any row is worse or unresolved, or any run in
// either set was incorrect.
func compareRuns(base, cand []*runResult) (rows []row, ok bool) {
	ok = true
	for _, r := range append(append([]*runResult(nil), base...), cand...) {
		if !r.Correct {
			ok = false
		}
	}
	for _, w := range workloadDefs {
		for _, m := range metricsOf(endToEnd) {
			b, c := valuesOf(base, w.Name, m.Name), valuesOf(cand, w.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			r := judge(m, b, c)
			r.Workload = w.Name
			rows = append(rows, r)
			if r.Verdict == worse || r.Verdict == unresolved {
				ok = false
			}
		}
	}
	return rows, ok
}

func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tworse by\tbound\tspread base\tspread new\truns\tverdict")
	for _, r := range rows {
		ratio := 0.0
		if r.Base != 0 {
			ratio = r.New / r.Base
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%d+%d\t%s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, r.Base, r.New, ratio,
			100*r.worseBy(), 100*r.Metric.Bound, 100*r.BaseSpread, 100*r.NewSpread, r.BaseN, r.NewN, r.Verdict)
	}
	tw.Flush()
}

// compareFiles is `bench -compare base.json new.json`.
func compareFiles(w io.Writer, basePath, newPath string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base: %s  commit %s  %s  nproc %d  data dir on %s  window %ds\n",
		basePath, base.Header.Commit, base.Header.GoVersion, base.Header.NProc, base.Header.DataFS, base.Header.Seconds)
	fmt.Fprintf(w, "new:  %s  commit %s  %s  nproc %d  data dir on %s  window %ds\n",
		newPath, cand.Header.Commit, cand.Header.GoVersion, cand.Header.NProc, cand.Header.DataFS, cand.Header.Seconds)
	rows, ok := compareRuns(base.Runs, cand.Runs)
	printRows(w, rows)
	for _, rf := range []resultFile{base, cand} {
		for _, r := range rf.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "incorrect run: %s seed %d: %v\n", r.Workload, r.Seed, r.Problems)
			}
		}
	}
	if ok {
		fmt.Fprintln(w, "every end-to-end metric on every workload is within its bound, and repeats within it")
	}
	return ok, nil
}

// printSpreads summarises a set of runs on its own: each end-to-end
// metric's median and interquartile spread per workload, the figure a
// bound has to be read against.
func printSpreads(w io.Writer, runs []*runResult) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tspread (IQR/median)\tbound\truns")
	for _, wl := range workloadDefs {
		for _, m := range metricsOf(endToEnd) {
			vs := valuesOf(runs, wl.Name, m.Name)
			if len(vs) < 2 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.2f%%\t%.0f%%\t%d\n",
				wl.Name, m.Name, m.Unit, newSample(vs).p50(), 100*spread(vs), 100*m.Bound, len(vs))
		}
	}
	tw.Flush()
}
