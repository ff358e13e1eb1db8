// Package atomicmix implements the centurylint analyzer that bans
// sync/atomic's function API (atomic.AddUint64, atomic.LoadInt64, ...).
//
// A word reached through the function API is an ordinary field: any
// other line can still read or write it plainly, and that mix is a data
// race the atomics only make look safe. This is the exact bug class PR 5
// fixed by hand in ingestCounters: half the code path moved to
// atomic.AddUint64 while a reader kept a plain load, which the race
// detector only catches when a test happens to hit the interleaving. On
// a node that must run for decades the race eventually loses.
//
// The wrapper types (atomic.Int64, atomic.Uint64, atomic.Pointer...)
// expose no plain load or store, so a field of one cannot mix by
// construction. The analyzer therefore reports every call of a
// package-level sync/atomic function and none of the wrappers' methods.
// A word that cannot be a wrapper (a plain-layout slab shared with
// another process, say) annotates `//lint:atomicmix <reason>`.
package atomicmix

import (
	"go/ast"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name:      "atomicmix",
	Directive: "atomicmix",
	Doc: "flag every call of sync/atomic's function API (atomic.AddUint64, " +
		"atomic.LoadInt64, ...): the word it touches can still be accessed " +
		"plainly (the ingestCounters race); use the wrapper types " +
		"(atomic.Int64, atomic.Pointer, ...), which cannot mix",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := typeutil.Callee(pass.TypesInfo, call)
			if fn == nil || typeutil.PkgPath(fn) != "sync/atomic" || typeutil.ReceiverNamed(fn) != nil {
				return true
			}
			pass.Reportf(call.Pos(),
				"atomic.%s is sync/atomic's function API: the word it touches can still be read or written plainly, which races with the atomics (the ingestCounters bug class PR 5 fixed); make the field an atomic wrapper type (atomic.Int64, atomic.Uint64, atomic.Pointer, ...) or annotate //lint:atomicmix <reason>",
				fn.Name())
			return true
		})
	}
	return nil
}
