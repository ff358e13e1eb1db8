// Package lockedio implements the centurylint analyzer that finds
// blocking I/O performed while a sync.Mutex or sync.RWMutex is held.
//
// This is the exact shape of the PR 2 snapshot-stall bug: the endpoint
// encoded a multi-hundred-megabyte JSON snapshot while holding the store
// mutex, so ingest latency spiked from microseconds to seconds whenever a
// checkpoint ran. The general rule: a critical section should cover
// memory, not devices. File writes, fsyncs, network calls, and bulk JSON
// (en|de)coding under a hot lock turn one slow syscall into a stall for
// every competing goroutine.
//
// Detection is per function body. A locked region opens at a
// `mu.Lock()`/`mu.RLock()` statement and closes at the matching
// `mu.Unlock()`/`mu.RUnlock()` in the same block (a deferred unlock holds
// to the end of the function). Inside a region, lockedio flags calls that
// perform blocking I/O directly, and calls that transitively reach
// blocking I/O through the dataflow call summaries — since v2 across
// package boundaries, not just same-package helpers, so a store method
// that appends to another package's WAL while holding the store mutex
// reports at the locked call site three packages away from the fsync.
// Function literal bodies, `go` statements, and deferred calls are not
// scanned: they do not run synchronously under the lock at that point.
//
// I/O behind an interface is a blind spot: a call through one resolves
// to no summary. dataflow's ioMethods special-cases one seam, vfs.File
// and vfs.FS, so the WAL's and the checkpoint's writes and fsyncs stay
// visible.
// resilience.Sender is not special-cased, and lockedio is not taught to
// resolve its implementations: that is how the replica hop once held a
// per-peer lock across every round trip unseen (DESIGN.md F12).
// TestReplicaSendsOverlap in internal/cluster holds that contract
// instead: two payloads to one replica must overlap.
//
// Some critical sections hold a lock across I/O on purpose — the WAL
// append must serialize the write with the memtable insert or the
// durability ordering contract breaks. Those sites annotate
// `//lint:lockedio <reason>`, turning an invisible design decision into a
// reviewable line.
package lockedio

import (
	"go/ast"
	"go/types"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/dataflow"
	"centuryscale/internal/lint/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name:      "lockedio",
	Directive: "lockedio",
	Doc: "flag blocking I/O (file writes/fsyncs, net and net/http calls, bulk " +
		"JSON encode/decode) performed while a sync.Mutex or RWMutex is held " +
		"(snapshot-stall class), including I/O reached transitively through " +
		"helpers in any loaded package",
	Run: run,
}

func run(pass *analysis.Pass) error {
	index := pass.Summaries
	for _, file := range pass.Files {
		// Every function body — declarations and literals, however deeply
		// nested — is scanned independently; scanBlock itself never
		// descends into a FuncLit, so no statement is scanned twice.
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					scanBlock(pass, index, fn.Body.List, map[string]bool{})
				}
			case *ast.FuncLit:
				scanBlock(pass, index, fn.Body.List, map[string]bool{})
			}
			return true
		})
	}
	return nil
}

// scanBlock walks one statement list tracking which mutexes are held.
// Nested control flow is scanned with a copy of the held set, so a
// branch-local Lock or Unlock never leaks into the enclosing block.
func scanBlock(pass *analysis.Pass, index *dataflow.Index, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if recv, op, ok := lockOp(pass, s.X); ok {
				switch op {
				case "Lock", "RLock":
					held[recv] = true
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				continue
			}
			inspectForIO(pass, index, s, held)
		case *ast.DeferStmt:
			// A deferred Unlock keeps the region open to function end;
			// other deferred calls run after the section closes. Either
			// way the statement itself is not I/O under the lock.
		case *ast.GoStmt:
			// The spawned goroutine does not hold this goroutine's locks.
		case *ast.BlockStmt:
			scanBlock(pass, index, s.List, clone(held))
		case *ast.IfStmt:
			inspectForIO(pass, index, s.Init, held)
			inspectForIO(pass, index, s.Cond, held)
			scanBlock(pass, index, s.Body.List, clone(held))
			if s.Else != nil {
				scanBlock(pass, index, []ast.Stmt{s.Else}, clone(held))
			}
		case *ast.ForStmt:
			inspectForIO(pass, index, s.Init, held)
			inspectForIO(pass, index, s.Cond, held)
			inspectForIO(pass, index, s.Post, held)
			scanBlock(pass, index, s.Body.List, clone(held))
		case *ast.RangeStmt:
			inspectForIO(pass, index, s.X, held)
			scanBlock(pass, index, s.Body.List, clone(held))
		case *ast.SwitchStmt:
			inspectForIO(pass, index, s.Init, held)
			inspectForIO(pass, index, s.Tag, held)
			scanCases(pass, index, s.Body, held)
		case *ast.TypeSwitchStmt:
			scanCases(pass, index, s.Body, held)
		case *ast.SelectStmt:
			scanCases(pass, index, s.Body, held)
		case *ast.LabeledStmt:
			scanBlock(pass, index, []ast.Stmt{s.Stmt}, held)
		default:
			inspectForIO(pass, index, stmt, held)
		}
	}
}

func scanCases(pass *analysis.Pass, index *dataflow.Index, body *ast.BlockStmt, held map[string]bool) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			scanBlock(pass, index, cc.Body, clone(held))
		case *ast.CommClause:
			scanBlock(pass, index, cc.Body, clone(held))
		}
	}
}

func clone(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// lockOp matches `<expr>.Lock()`-shaped calls on sync mutexes, returning
// the rendered receiver expression and the operation name.
func lockOp(pass *analysis.Pass, expr ast.Expr) (recv, op string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || typeutil.PkgPath(fn) != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// inspectForIO reports every blocking I/O call inside node while any
// mutex is held. Function literals are skipped: their bodies run when
// invoked, which scanBlock/run handle separately.
func inspectForIO(pass *analysis.Pass, index *dataflow.Index, node ast.Node, held map[string]bool) {
	if node == nil || len(held) == 0 {
		return
	}
	heldName := ""
	for k := range held {
		if heldName == "" || k < heldName {
			heldName = k
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := typeutil.Callee(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if io := dataflow.DirectIO(callee); io != "" {
			pass.Reportf(call.Pos(),
				"%s while %q is held blocks every goroutine contending for the lock (snapshot-stall class); move the I/O outside the critical section or annotate //lint:lockedio <reason>",
				io, heldName)
			return true
		}
		if io := index.ReachesIO(dataflow.Name(callee)); io != "" {
			// Same-package callees keep their bare name; a cross-package
			// callee is named in full so the reader can find the sink.
			name := callee.Name()
			if callee.Pkg() != pass.Pkg {
				name = dataflow.Name(callee)
			}
			pass.Reportf(call.Pos(),
				"call to %s reaches blocking I/O (%s) while %q is held (snapshot-stall class); move the I/O outside the critical section or annotate //lint:lockedio <reason>",
				name, io, heldName)
		}
		return true
	})
}
