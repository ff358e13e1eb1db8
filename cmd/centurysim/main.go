// Command centurysim regenerates the paper's quantitative claims as
// tables. Run one experiment by ID or groups of them:
//
//	centurysim -experiment E4
//	centurysim -experiment all -seed 42
//	centurysim -experiment ablations
//	centurysim -experiment A5 -format csv > density.csv
//
// Experiment IDs and what they reproduce are indexed in DESIGN.md; the
// recorded outputs live in EXPERIMENTS.md. Output formats: text
// (default, aligned columns), csv, json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"centuryscale/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("experiment", "all", "experiment ID (E1..E12, A1..A14), 'all', 'ablations', or 'everything'")
		seed   = flag.Uint64("seed", 1, "simulation seed; equal seeds reproduce results exactly")
		format = flag.String("format", "text", "output format: text, csv, json")
		list   = flag.Bool("list", false, "list experiment IDs and titles")
	)
	flag.Parse()

	if *list {
		for _, t := range append(experiments.All(*seed), experiments.AllAblations(*seed)...) {
			fmt.Printf("%-4s %s\n", t.ID, t.Title)
		}
		return
	}

	var tables []experiments.Table
	switch {
	case strings.EqualFold(*exp, "all"):
		tables = experiments.All(*seed)
	case strings.EqualFold(*exp, "ablations"):
		tables = experiments.AllAblations(*seed)
	case strings.EqualFold(*exp, "everything"):
		tables = append(experiments.All(*seed), experiments.AllAblations(*seed)...)
	default:
		t, ok := experiments.ByID(*exp, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "centurysim: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		tables = []experiments.Table{t}
	}

	switch strings.ToLower(*format) {
	case "text":
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	case "csv":
		for i, t := range tables {
			if i > 0 {
				fmt.Println()
			}
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "centurysim: %v\n", err)
				os.Exit(1)
			}
		}
	case "json":
		if err := experiments.WriteAllJSON(os.Stdout, tables); err != nil {
			fmt.Fprintf(os.Stderr, "centurysim: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "centurysim: unknown format %q\n", *format)
		os.Exit(2)
	}
}
