// Package allocfree implements the centurylint analyzer that enforces a
// budget of zero on the paths whose BENCH baselines promise exactly
// that: the obs metric primitives (Counter.Inc/Add, Gauge.Set/Add,
// Histogram.Observe/ObserveSince/Now — BENCH_obs.json pins them at 0
// allocs/op) and the tsdb append path (DB.Append → shard.append →
// wal.append into the log buffer, then wal.flush, whose 1 alloc/op in
// BENCH_tsdb.json is pure amortized growth). These are the primitives
// every packet — or, for the flush, every frame — crosses; one
// fmt.Sprintf added to any of them multiplies into the ingest rate.
//
// The contract is always==0 and not unbounded, over the static measure
// of the dataflow allocation-effects pass (DESIGN.md §38). Amortized
// sites — append growth, map inserts — are admitted: geometric growth
// is O(1) per op, and the AllocsPerRun regression tests pin the runtime
// numbers separately. Unlike allocbudget's annotations, the contract
// table lives here, keyed by import-path suffix, so the gate holds even
// if a hot-path annotation is deleted. A genuine exception justifies
// itself at the site with `//lint:allocfree <reason>`.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/dataflow"
	"centuryscale/internal/lint/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name:      "allocfree",
	Directive: "allocfree",
	Doc: "enforce the zero-allocation contracts the BENCH baselines promise: the " +
		"obs metric primitives and the tsdb append path must reach no always-class " +
		"allocation site (amortized growth is admitted), transitively through every " +
		"statically-resolved callee",
	Run: run,
}

// contracts lists the (package suffix, receiver, method) triples under
// the zero-allocation contract, with the baseline that promises it.
var contracts = []struct {
	pkg    string
	recv   string
	method string
	why    string
}{
	{"internal/obs", "Counter", "Inc", "BENCH_obs.json: 0 allocs/op"},
	{"internal/obs", "Counter", "Add", "BENCH_obs.json: 0 allocs/op"},
	{"internal/obs", "Gauge", "Set", "BENCH_obs.json: 0 allocs/op"},
	{"internal/obs", "Gauge", "Add", "BENCH_obs.json: 0 allocs/op"},
	{"internal/obs", "Histogram", "Observe", "BENCH_obs.json: 0 allocs/op"},
	{"internal/obs", "Histogram", "ObserveSince", "BENCH_obs.json: 0 allocs/op"},
	{"internal/obs", "Histogram", "Now", "BENCH_obs.json: 0 allocs/op"},
	{"internal/tsdb", "DB", "Append", "BENCH_tsdb.json: amortized growth only"},
	{"internal/tsdb", "shard", "append", "BENCH_tsdb.json: amortized growth only"},
	{"internal/tsdb", "wal", "append", "BENCH_tsdb.json: amortized growth only"},
	{"internal/tsdb", "wal", "flush", "BENCH_tsdb.json: amortized growth only"},
}

func run(pass *analysis.Pass) error {
	ix := pass.Summaries
	if ix == nil {
		ix = dataflow.NewIndex()
		ix.Add(dataflow.Summarize(pass.TypesInfo, pass.Files))
		ix.Resolve()
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			why, covered := contractFor(fn)
			if !covered {
				continue
			}
			name := dataflow.Name(fn)
			e, indexed := ix.AllocsOf(name)
			if !indexed {
				continue
			}
			switch {
			case e.Unbounded:
				chain, desc := ix.AllocUnboundedWitness(name)
				pass.Reportf(fd.Name.Pos(),
					"alloc-free contract: %s allocates without bound: %s (via %s) — %s",
					name, desc, strings.Join(chain, " -> "), why)
			case e.Always > 0:
				chain, site := ix.AllocWitness(name)
				pass.Reportf(fd.Name.Pos(),
					"alloc-free contract: %s allocates on the steady path (%s; witness: %s, via %s) — %s",
					name, plural(e.Always), site, strings.Join(chain, " -> "), why)
			}
		}
	}
	return nil
}

func plural(n int) string {
	return fmt.Sprintf("%d always-allocations per call", n)
}

// contractFor returns the baseline note for a method under contract.
func contractFor(fn *types.Func) (string, bool) {
	named := typeutil.ReceiverNamed(fn)
	if named == nil {
		return "", false
	}
	path := typeutil.PkgPath(named.Obj())
	for _, c := range contracts {
		if fn.Name() == c.method && named.Obj().Name() == c.recv && typeutil.HasPathSuffix(path, []string{c.pkg}) {
			return c.why, true
		}
	}
	return "", false
}
