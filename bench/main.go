// Command bench is the repository's benchmark: it builds cmd/endpointd
// and cmd/routerd from the tree it sits in, drives them over 127.0.0.1
// with a fleet-shaped load generated from a seed, checks the answers,
// and prints every metric by name. See README.md beside this file.
//
//	go run -C bench . --workload frames_cpu --seed 1 --seconds 12 --trace 0
//	go run -C bench . --seed 1                    # all four workloads
//	go run -C bench . --seed 1 --trace 1          # ... with the per-layer traced run
//	go run -C bench . --runs 10 --save out/a.json # a set of runs, for -compare
//	go run -C bench . -compare out/a.json out/b.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: frames_cpu, frames_durable, cluster_frames, aged_mixed, or all")
		seed     = flag.Uint64("seed", 1, "generator seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 adds the in-process traced run and reports the per-layer metrics")
		runs     = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		save     = flag.String("save", "", "write every run's result to this JSON file (the input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -save files: bench -compare a.json b.json")
		describe = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the metric catalogue defines it, and exit")
	)
	flag.Parse()

	if *describe {
		fmt.Println(benchmarkJSON())
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds < 1 || *runs < 1 {
		fatal(errors.New("-seconds and -runs must be at least 1"))
	}

	var names []string
	if *workload == "all" {
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	} else {
		if !knownWorkload(*workload) {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		names = []string{*workload}
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	jan := &janitor{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		jan.cleanup()
		os.Exit(130)
	}()

	results, err := runAll(root, jan, names, *seed, *runs, time.Duration(*seconds)*time.Second, *trace == 1, *save)
	jan.cleanup()
	if err != nil {
		fatal(err)
	}
	for _, r := range results {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds: what the committed
// bounds were validated at.
const defaultSeconds = 12

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module centuryscale.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			sc := bufio.NewScanner(strings.NewReader(string(b)))
			for sc.Scan() {
				if strings.TrimSpace(sc.Text()) == "module centuryscale" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the centuryscale repository: no go.mod declaring module centuryscale above the working directory, so there are no daemons to build")
		}
		dir = parent
	}
}

// header records where and on what a set of results was measured.
type header struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	DataFS     string `json:"data_dir_filesystem"`
	Loopback   bool   `json:"traffic_crossed_loopback"`
	Seconds    int    `json:"window_seconds"`
}

// resultFile is what -save writes and -compare reads.
type resultFile struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func runAll(root string, jan *janitor, names []string, seed uint64, runs int, window time.Duration, trace bool, save string) ([]*runResult, error) {
	outDir := filepath.Join(root, "bench", "out")
	binDir := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
	logf("building cmd/endpointd and cmd/routerd from %s", root)
	built, err := buildDaemons(root, binDir)
	if err != nil {
		return nil, err
	}

	hdr := header{
		Commit:     commitOf(root),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		DataFS:     fsType(outDir),
		Loopback:   true,
		Seconds:    int(window / time.Second),
	}
	fmt.Printf("# commit %s  nproc %d  GOMAXPROCS %d  %s  data dir on %s  traffic crossed loopback: %v  window %ds\n",
		hdr.Commit, hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.DataFS, hdr.Loopback, hdr.Seconds)

	var results []*runResult
	for _, name := range names {
		for i := 0; i < runs; i++ {
			work, err := os.MkdirTemp(outDir, "run-")
			if err != nil {
				return results, err
			}
			jan.addDir(work)
			e := &env{
				outDir: outDir, binDir: binDir, work: work,
				seed: seed + uint64(i), window: window, trace: trace,
				buildS: built.Seconds(), jan: jan,
				admin: &http.Client{Timeout: 60 * time.Second},
				logf:  logf,
			}
			res, err := e.run(name)
			jan.cleanup()
			if err != nil {
				return results, fmt.Errorf("%s seed %d: %w", name, e.seed, err)
			}
			results = append(results, res)
			printResult(res)
			// Saved after every run: a set of runs takes minutes, and what
			// has been measured should survive whatever ends it early.
			if save != "" {
				b, err := json.MarshalIndent(resultFile{Header: hdr, Runs: results}, "", " ")
				if err != nil {
					return results, err
				}
				if err := os.WriteFile(save, append(b, '\n'), 0o644); err != nil {
					return results, err
				}
			}
		}
	}
	if runs > 1 {
		fmt.Println()
		printSpreads(os.Stdout, results)
	}
	// The contract's result line: last on standard output, one JSON
	// object. With one run it is that run; with several, their
	// conjunction and the last run's metrics.
	fmt.Println(contractLine(results))
	return results, nil
}

// run dispatches one workload and, when tracing, follows it with the
// in-process traced run of the same path.
func (e *env) run(name string) (*runResult, error) {
	var res *runResult
	var err error
	if spec, ok := frameSpecs[name]; ok {
		res, err = e.runFrames(spec)
	} else {
		res, err = e.runAged()
	}
	if err != nil || !e.trace {
		return res, err
	}
	if err := e.traced(name, res); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	return res, nil
}

// printResult prints every metric of one run by name, with its unit and,
// for timings, the sample count behind it.
func printResult(r *runResult) {
	fmt.Printf("\n== %s  seed %d  window %gs  correct %v  attempted %d  failed %d\n",
		r.Workload, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	for _, kind := range []metricKind{endToEnd, perLayer} {
		if kind == perLayer {
			fmt.Println("   -- per layer --")
		}
		for _, m := range metricsOf(kind) {
			v, ok := r.Values[m.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("   %-40s %14.6g %-8s", m.Name, v, m.Unit)
			if n, ok := r.Samples[m.Name]; ok {
				line += fmt.Sprintf(" n=%d", n)
				if p := highestTail(n, 10); strings.HasSuffix(m.Name, "_p99") && p < 99 {
					line += fmt.Sprintf(" (fewer than ten samples lie beyond p99; p%g is the highest percentile with ten)", p)
				}
			}
			if m.Source != "" {
				line += "  [" + m.Source + "]"
			}
			fmt.Println(strings.TrimRight(line, " "))
		}
	}
}

// contractLine renders the driver's result object: with tracing off the
// metrics are every end-to-end metric, with tracing on every per-layer
// metric. A per-layer metric the workload does not exercise reads 0.
func contractLine(results []*runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	last := results[len(results)-1]
	kind := endToEnd
	if last.Trace {
		kind = perLayer
	}
	for _, m := range metricsOf(kind) {
		out.Metrics[m.Name] = value{Value: last.Values[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to marshal
	}
	return string(b)
}

// benchmarkJSON renders BENCHMARK.json from the catalogue, so that the
// file at the repository root is regenerated, not edited:
//
//	go run -C bench . -benchmark-json > BENCHMARK.json
func benchmarkJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadDefs {
		out.Workloads = append(out.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range metricsOf(endToEnd) {
		out.EndToEnd = append(out.EndToEnd, gated{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range metricsOf(perLayer) {
		out.PerLayer = append(out.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers cannot fail to marshal
	}
	return string(b)
}
