// Package syncerr implements the centurylint analyzer that refuses to let
// durability-relevant Close/Sync/Flush/Truncate errors vanish.
//
// The torn-append class of bug (PR 2): a write path that ignores the
// error from the final Close or Sync can acknowledge a record that never
// reached stable storage — the loss surfaces years later as a replay gap.
// syncerr flags statements that call Close, Sync, Flush, or Truncate and
// drop the error, when the receiver is an *os.File, a *bufio.Writer, or
// any type declared in a durability package (internal/tsdb,
// internal/cloud, and internal/vfs, the disk seam both write through —
// where a discarded close IS a discarded fsync).
//
// Escapes, in order of preference: handle the error; write `_ = f.Close()`
// to make a deliberate best-effort discard explicit and greppable; or
// annotate `//lint:syncerr <reason>` (read-only handles, already-failed
// cleanup paths).
package syncerr

import (
	"go/ast"
	"go/types"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/typeutil"
)

// DurabilityPackages are import-path suffixes whose own types' Close/
// Sync/Flush/Truncate methods are treated as durability barriers.
var DurabilityPackages = []string{"internal/tsdb", "internal/cloud", "internal/vfs"}

var checkedMethods = map[string]bool{
	"Close": true, "Sync": true, "Flush": true, "Truncate": true,
}

var Analyzer = &analysis.Analyzer{
	Name:      "syncerr",
	Directive: "syncerr",
	Doc: "flag discarded errors from Close/Sync/Flush/Truncate on files and " +
		"durability-path types; an unchecked close can silently lose " +
		"acknowledged data (torn-append class)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				check(pass, stmt.X, "")
			case *ast.DeferStmt:
				check(pass, stmt.Call, "defer ")
			case *ast.GoStmt:
				check(pass, stmt.Call, "go ")
			}
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, expr ast.Expr, context string) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := typeutil.Callee(pass.TypesInfo, call)
	if fn == nil || !checkedMethods[fn.Name()] || !typeutil.ReturnsError(fn) {
		return
	}
	if !durabilityReceiver(fn) {
		return
	}
	recv := typeutil.ReceiverNamed(fn)
	pass.Reportf(call.Pos(),
		"%s%s.%s.%s discards its error: an unchecked %s can lose acknowledged data (torn-append class); handle it, discard explicitly with `_ =`, or annotate //lint:syncerr <reason>",
		context, recv.Obj().Pkg().Name(), recv.Obj().Name(), fn.Name(), fn.Name())
}

// durabilityReceiver reports whether fn is a method whose receiver type
// makes the discarded error durability-relevant.
func durabilityReceiver(fn *types.Func) bool {
	named := typeutil.ReceiverNamed(fn)
	if named == nil {
		return false
	}
	pkg := typeutil.PkgPath(named.Obj())
	name := named.Obj().Name()
	switch {
	case pkg == "os" && name == "File":
		return true
	case pkg == "bufio" && name == "Writer":
		return true
	case typeutil.HasPathSuffix(pkg, DurabilityPackages):
		return true
	}
	return false
}
