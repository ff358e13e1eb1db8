// Package simdeterminism implements the centurylint analyzer that keeps
// wall-clock time and ambient randomness out of the simulator's
// virtual-time packages, and out of every internal/rng seed.
//
// The determinism contract (internal/sim package doc; EXPERIMENTS.md) is
// that a seed identifies a run bit-for-bit. One stray time.Now or global
// math/rand draw breaks that silently: results still look plausible, they
// just stop being reproducible — the exact engineering-discipline drift
// the century-scale argument cannot afford. The daemon/network layer
// legitimately lives on the wall clock; inside it, annotate the use with
// `//lint:wallclock <reason>` (or keep the package out of
// VirtualTimePackages).
//
// The seed rule runs in every package: `rng.New(uint64(time.Now().
// UnixNano()))` in a daemon logs a "seed" that regenerates nothing.
// Seeds must flow from configuration: a flag, an experiment table, or
// a parent Source's Split.
package simdeterminism

import (
	"go/ast"
	"go/types"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/typeutil"
)

// VirtualTimePackages lists the packages that run on the simulator's
// virtual clock, as exact import paths or "/"-suffixes. centuryscale is
// the root simulation library; internal/rng is included so the
// deterministic generator itself can never be seeded or perturbed by the
// wall clock.
var VirtualTimePackages = []string{
	"centuryscale",
	"internal/sim",
	"internal/reliability",
	"internal/device",
	"internal/energy",
	"internal/fleet",
	"internal/experiments",
	"internal/econ",
	"internal/traffic",
	"internal/concrete",
	"internal/city",
	"internal/airfield",
	"internal/metering",
	"internal/stats",
	"internal/rng",
	// The tiered read path runs entirely on the data clock (arrival
	// durations): fold watermarks, window grids, and gap statistics are
	// functions of the series, never of the serving process's wall time
	// — that is what makes rollup state byte-deterministic across
	// crashes and re-folds.
	"internal/rollup",
	"internal/query",
}

// wallClockFuncs are the time package functions that read or schedule off
// the process clock. time.Duration arithmetic and constants stay legal:
// virtual time is itself a time.Duration.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

var randPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// rngPackages matches the deterministic generator, whose New takes the
// seed.
var rngPackages = []string{"internal/rng"}

// seedSources maps package path → functions that read nondeterministic
// state, for the seed rule. A nil set means every function in the
// package; init adds randPackages that way.
var seedSources = map[string]map[string]bool{
	"time": wallClockFuncs,
	"os": {
		"Getpid": true, "Getppid": true, "Getuid": true, "Geteuid": true,
		"Getgid": true, "Getegid": true,
	},
	"crypto/rand": nil,
}

func init() {
	for path := range randPackages {
		seedSources[path] = nil
	}
}

var Analyzer = &analysis.Analyzer{
	Name:      "simdeterminism",
	Directive: "wallclock",
	Doc: "forbid wall-clock reads (time.Now, time.Since, timers) and math/rand " +
		"in virtual-time packages, and wall-clock, process-state, or ambient-random " +
		"seeds into centuryscale/internal/rng anywhere; simulated processes must " +
		"take time from the sim clock and seeds from experiment configuration",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkSeeds(pass)
	if !typeutil.HasPathSuffix(pass.Pkg.Path(), VirtualTimePackages) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := importPath(imp)
			if randPackages[path] {
				pass.Reportf(imp.Pos(),
					"virtual-time package %s imports %s: ambient randomness breaks seed-identified replay; draw from centuryscale/internal/rng instead",
					pass.Pkg.Path(), path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			if typeutil.PkgPath(fn) == "time" && wallClockFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock inside virtual-time package %s: simulated processes must take time from the sim clock (internal/sim); annotate //lint:wallclock <reason> if wall-clock is genuinely intended",
					fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// checkSeeds flags rng.New calls whose seed expression calls into
// seedSources.
func checkSeeds(pass *analysis.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := typeutil.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "New" || !typeutil.HasPathSuffix(typeutil.PkgPath(fn), rngPackages) {
				return true
			}
			for _, arg := range call.Args {
				if src := seedSource(pass.TypesInfo, arg); src != "" {
					pass.Reportf(call.Pos(),
						"rng.New seeded from %s: a nondeterministic seed makes the run unreproducible — derive seeds from experiment configuration (flag, table, or Source.Split)",
						src)
					break
				}
			}
			return true
		})
	}
}

// seedSource names the first seedSources function referenced inside
// expr, or returns "".
func seedSource(info *types.Info, expr ast.Expr) string {
	found := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && found == "" {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
				path := typeutil.PkgPath(fn)
				if names, ok := seedSources[path]; ok && (names == nil || names[fn.Name()]) {
					found = path + "." + fn.Name()
				}
			}
		}
		return found == ""
	})
	return found
}

func importPath(spec *ast.ImportSpec) string {
	s := spec.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}
