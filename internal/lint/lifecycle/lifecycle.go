// Package lifecycle implements the centurylint analyzer that keeps
// goroutines and the cancellation chain tied to shutdown.
//
// A century-scale endpoint restarts its daemons on config swaps,
// failover, and firmware migration — thousands of times on the paper's
// timescales. A goroutine that loops forever without observing a stop
// signal leaks one copy per restart, holding a stale socket or ticker
// until the process dies. So in every package a `go` spawn whose body
// loops forever (a `for` with no condition, directly or in a callee)
// must be tied: it can observe shutdown through a context, a struct{}
// stop channel, or a WaitGroup, as an argument (dataflow.IsStopArg) or
// closed over, transitively through its callees.
//
// In DaemonPackages every spawn, looping or not, must also be joined:
// it (transitively) calls (*sync.WaitGroup).Done and someone in the
// package Waits, or it closes/sends on a channel some shutdown path in
// the package receives from — by canonical root (dataflow.ExprRoot)
// for fields and globals, by object identity for a function-local
// done-channel received in the spawning function itself. A goroutine
// still running after "shutdown" holds the sockets, shard handles, and
// WAL files the restarting daemon is about to reopen.
//
// In every package two calls cut the cancellation chain from main's
// root context: context.Background()/TODO() inside a function that
// already has a ctx parameter (function literals exempt: a literal may
// start a detached lifecycle, and its spawn is audited above), and a
// call from package main into a function that loops forever and
// observes no stop signal.
//
// Dynamic dispatch and functions outside the loaded packages resolve to
// no summary and stay quiet, as everywhere in the suite. A genuinely
// process-lifetime goroutine (an http.Serve runner whose join *is* the
// server's Shutdown) or an intentional chain break states its contract
// with `//lint:lifecycle <reason>`, audited by waiveraudit.
package lifecycle

import (
	"go/ast"
	"go/types"
	"strings"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/dataflow"
	"centuryscale/internal/lint/typeutil"
)

// DaemonPackages lists the packages whose every spawn must be tied and
// joined, as "/"-suffixes: the long-running serving stack plus the
// daemon mains. Elsewhere only forever-loops must be tied — simulation
// and library code spawns under test harnesses that outlive it.
var DaemonPackages = []string{
	"internal/daemon",
	"internal/cloud",
	"internal/tsdb",
	"internal/cluster",
	"internal/resilience",
	"internal/obs",
	"internal/gateway",
	"cmd/routerd",
	"cmd/endpointd",
	"cmd/gatewayd",
	"cmd/hotspotd",
	"cmd/sensornode",
}

var Analyzer = &analysis.Analyzer{
	Name:      "lifecycle",
	Directive: "lifecycle",
	Doc: "keep goroutines and the cancellation chain tied to shutdown: no " +
		"forever-looping spawn without a stop signal; in daemon packages every " +
		"spawn is tied (ctx/stop channel/WaitGroup) and joined (WaitGroup.Wait or " +
		"a done-channel receive); no context.Background()/TODO() under an " +
		"incoming ctx; no call from main into an unstoppable forever-loop",
	Run: run,
}

// joins is a daemon package's join evidence: whether anyone in it
// Waits, and which channel roots its shutdown paths receive from.
type joins struct {
	waits    bool
	receives map[string]bool
}

func run(pass *analysis.Pass) error {
	index := pass.Summaries
	var j *joins // nil outside DaemonPackages
	if typeutil.HasPathSuffix(pass.Pkg.Path(), DaemonPackages) {
		// Computed from this package's own (resolved) summaries.
		j = &joins{receives: make(map[string]bool)}
		prefix := pass.Pkg.Path() + "."
		for _, name := range index.Names() {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			s := index.Lookup(name)
			j.waits = j.waits || s.CallsWGWait
			for _, r := range rootsOf(index, s, receives) {
				j.receives[r] = true
			}
		}
	}
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkChain(pass, index, fd, isMain)
				checkSpawns(pass, index, fd, j)
			}
		}
	}
	return nil
}

// checkChain applies the two cancellation-chain rules to one
// declaration's synchronous body.
func checkChain(pass *analysis.Pass, index *dataflow.Index, fd *ast.FuncDecl, isMain bool) {
	hasCtx := false
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if s := index.Lookup(dataflow.Name(fn)); s != nil {
			hasCtx = s.HasCtxParam
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
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
		if hasCtx && typeutil.PkgPath(callee) == "context" &&
			(callee.Name() == "Background" || callee.Name() == "TODO") {
			pass.Reportf(call.Pos(),
				"context.%s() inside a function that already has a ctx parameter resurrects an un-cancellable root and cuts everything downstream out of the shutdown chain; derive from the incoming ctx instead, or annotate //lint:lifecycle <reason>",
				callee.Name())
		}
		if isMain {
			if sum := index.Lookup(dataflow.Name(callee)); sum != nil &&
				index.BlockingOf(sum) && !index.StopsOf(sum) {
				pass.Reportf(call.Pos(),
					"%s loops forever but takes no context and observes no stop signal: cancellation from main can never reach it; thread the root ctx through this call chain or annotate //lint:lifecycle <reason>",
					callee.Name())
			}
		}
		return true
	})
}

// checkSpawns examines every spawn lexically inside one declaration.
// In a daemon package (j non-nil) the declaration's body is also the
// local-join scope.
func checkSpawns(pass *analysis.Pass, index *dataflow.Index, fd *ast.FuncDecl, j *joins) {
	// Local join scope: channel objects the enclosing function receives
	// from, and whether it Waits — a spawn joined right where it was
	// made (the fan-out idiom) needs no package-wide evidence.
	localRecv := make(map[types.Object]bool)
	localWaits := false
	if j != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					if obj := chanObj(pass.TypesInfo, n.X); obj != nil {
						localRecv[obj] = true
					}
				}
			case *ast.RangeStmt:
				if _, isChan := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Chan); isChan {
					if obj := chanObj(pass.TypesInfo, n.X); obj != nil {
						localRecv[obj] = true
					}
				}
			case *ast.CallExpr:
				if callee := typeutil.Callee(pass.TypesInfo, n); callee != nil &&
					callee.Name() == "Wait" && typeutil.IsMethodOf(callee, "sync", "WaitGroup") {
					localWaits = true
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		checkSpawn(pass, index, g, j, localWaits, localRecv)
		return true
	})
}

func checkSpawn(pass *analysis.Pass, index *dataflow.Index, g *ast.GoStmt, j *joins, localWaits bool, localRecv map[types.Object]bool) {
	call := g.Call

	var sum *dataflow.FuncSummary
	var lit *ast.FuncLit
	name := "the function literal"
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		lit = fun
		sum = dataflow.SummarizeLit(pass.TypesInfo, fun)
	default:
		callee := typeutil.Callee(pass.TypesInfo, call)
		if callee == nil {
			return // dynamic dispatch: no summary, stay quiet
		}
		sum = index.Lookup(dataflow.Name(callee))
		if sum == nil {
			return // outside the loaded packages
		}
		name = callee.Name()
	}

	tied := index.StopsOf(sum)
	for _, arg := range call.Args {
		if dataflow.IsStopArg(pass.TypesInfo.TypeOf(arg)) {
			tied = true
		}
	}
	if j == nil {
		if !tied && index.BlockingOf(sum) {
			pass.Reportf(g.Pos(),
				"goroutine runs forever with no stop signal: %s loops without observing a context, stop channel, or WaitGroup, and leaks on every daemon restart; tie its lifetime to a ctx (select on ctx.Done()) or annotate //lint:lifecycle <reason>",
				name)
		}
		return
	}

	// Half one: tied to shutdown.
	if !tied {
		pass.Reportf(g.Pos(),
			"goroutine is not tied to shutdown: %s observes no context, stop channel, or WaitGroup; in a daemon package every spawn must be able to learn the process is stopping — pass a ctx or annotate //lint:lifecycle <reason>",
			name)
	}

	// Half two: a join path reachable from shutdown.
	joined := false
	if wgDoneOf(index, sum) || hasWGArg(pass.TypesInfo, call) {
		joined = j.waits || localWaits
	}
	if !joined {
		for _, root := range rootsOf(index, sum, signals) {
			if j.receives[root] {
				joined = true
				break
			}
		}
	}
	if !joined && lit != nil {
		// Local done-channel: the literal closes/sends a function-local
		// channel the spawning function receives from.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
					if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB && b.Name() == "close" {
						if obj := chanObj(pass.TypesInfo, n.Args[0]); obj != nil && localRecv[obj] {
							joined = true
						}
					}
				}
			case *ast.SendStmt:
				if obj := chanObj(pass.TypesInfo, n.Chan); obj != nil && localRecv[obj] {
					joined = true
				}
			}
			return true
		})
	}
	if !joined {
		pass.Reportf(g.Pos(),
			"goroutine has no join path: nothing can wait for %s to finish — shutdown returns while it may still hold sockets or shard handles; give it a WaitGroup (Done here, Wait on the shutdown path) or a done channel someone receives from, or annotate //lint:lifecycle <reason>",
			name)
	}
}

// wgDoneOf reports whether the body calls WaitGroup.Done, directly or
// through resolved callees.
func wgDoneOf(index *dataflow.Index, s *dataflow.FuncSummary) bool {
	if s.CallsWGDone {
		return true
	}
	for _, c := range s.Calls {
		if t := index.Lookup(c); t != nil && t.CallsWGDone {
			return true
		}
	}
	return false
}

// signals and receives pick a summary's completion signals (channel
// roots closed or sent on) and the roots it receives from.
func signals(s *dataflow.FuncSummary) [][]string  { return [][]string{s.ClosesChans, s.SendsChans} }
func receives(s *dataflow.FuncSummary) [][]string { return [][]string{s.ReceivesChans} }

// rootsOf returns the channel roots pick selects from the body,
// directly or through resolved callees, without duplicates.
func rootsOf(index *dataflow.Index, s *dataflow.FuncSummary, pick func(*dataflow.FuncSummary) [][]string) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(t *dataflow.FuncSummary) {
		for _, roots := range pick(t) {
			for _, r := range roots {
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
		}
	}
	add(s)
	for _, c := range s.Calls {
		if t := index.Lookup(c); t != nil {
			add(t)
		}
	}
	return out
}

// chanObj resolves a channel expression to its variable object when it
// is a plain identifier (function-local done channels); selector-based
// channels go through canonical roots instead.
func chanObj(info *types.Info, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// hasWGArg reports whether the spawn passes a *sync.WaitGroup.
func hasWGArg(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := info.TypeOf(arg)
		if t == nil {
			continue
		}
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			if named, ok := ptr.Elem().(*types.Named); ok {
				obj := named.Obj()
				if obj.Name() == "WaitGroup" && typeutil.PkgPath(obj) == "sync" {
					return true
				}
			}
		}
	}
	return false
}
