// Interprocedural call summaries. Each function declaration in an
// analyzed package gets a FuncSummary of the effects centurylint cares
// about; an Index aggregates summaries across every package the driver
// loads and closes them transitively over the call graph, so an
// analyzer inspecting a call site in package a can see that the callee
// three packages away fsyncs a file or loops forever.
//
// Summaries are keyed by qualified name ("pkg/path.Func" or
// "pkg/path.(Type).Method"), which is exactly what the loader's export
// data identifies, so the index works across any set of packages loaded
// in one run. Calls through interfaces or function values resolve to no
// summary and contribute nothing — the suite stays conservative in the
// no-false-positive direction at dynamic dispatch, and the analyzers
// that need a hard guarantee (lockedio's WAL contract) keep their
// package-local precision unchanged.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"centuryscale/internal/lint/typeutil"
)

// ioFuncs maps package path → package-level functions that block on
// I/O. A nil set means every function in the package.
var ioFuncs = map[string]map[string]bool{
	"net":      nil,
	"net/http": nil,
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
		"WriteFile": true, "ReadFile": true, "ReadDir": true,
		"Mkdir": true, "MkdirAll": true, "Remove": true, "RemoveAll": true,
		"Rename": true, "Truncate": true,
	},
	"encoding/json": {"Marshal": true, "MarshalIndent": true},
	"io":            {"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true},
}

// ioMethods maps receiver (pkg, type) → methods that block on I/O.
// A nil set means every method.
var ioMethods = map[[2]string]map[string]bool{
	{"os", "File"}: {
		"Write": true, "WriteString": true, "WriteAt": true, "ReadFrom": true,
		"Read": true, "ReadAt": true, "Sync": true, "Truncate": true, "Close": true,
	},
	{"encoding/json", "Encoder"}: {"Encode": true},
	{"encoding/json", "Decoder"}: {"Decode": true},
	{"bufio", "Writer"}:          {"Flush": true, "ReadFrom": true},
	// The WAL's file seam: an interface, so a call through it resolves to
	// no summary, and without this entry the log's writes and fsyncs
	// would be invisible to lockedio exactly where it matters most.
	{"centuryscale/internal/tsdb", "logFile"}: nil,
}

// DirectIO returns a human-readable name for the blocking I/O fn
// performs itself, or "".
func DirectIO(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	named := typeutil.ReceiverNamed(fn)
	path := typeutil.PkgPath(fn)
	// Package-level functions, plus every function and method of the
	// all-blocking packages (net, net/http — including their interface
	// methods, whose object also carries the package).
	if names, ok := ioFuncs[path]; ok && (names == nil || (named == nil && names[fn.Name()])) {
		if named != nil {
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
		return path + "." + fn.Name()
	}
	if named != nil {
		key := [2]string{typeutil.PkgPath(named.Obj()), named.Obj().Name()}
		if names, ok := ioMethods[key]; ok && (names == nil || names[fn.Name()]) {
			return key[0] + "." + key[1] + "." + fn.Name()
		}
	}
	return ""
}

// Name returns the qualified summary key for fn: "pkg/path.Func" for a
// package-level function, "pkg/path.(Recv).Method" for a method
// (pointerness ignored). Empty for builtins and error.Error-style
// objects with no package.
func Name(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if named := typeutil.ReceiverNamed(fn); named != nil {
		return fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// A FuncSummary records the effects of one function body that
// centurylint's flow analyzers consume. After Index.Resolve, the
// effect fields are transitive over the static call graph.
type FuncSummary struct {
	// Name is the qualified key ("" for function literals summarized at
	// their use site).
	Name string

	// IO names the first blocking I/O this function reaches ("" if
	// none). Synchronous code only: nested literals, defers, and go
	// statements do not run under the caller's locks.
	IO string

	// Blocking reports that the body cannot reach its own CFG exit: no
	// path from entry escapes its loops via break, return, or goto. A
	// decode loop with a break is not Blocking; `for { work() }` is.
	Blocking bool

	// Stops reports that the body can observe a shutdown signal: it
	// references a context.Context, receives from a struct{} channel,
	// or calls (*sync.WaitGroup).Done. Nested literals count — a
	// watcher goroutine holding the ctx still ties the lifetime.
	Stops bool

	// HasCtxParam reports a context.Context in the signature.
	HasCtxParam bool

	// Calls lists qualified names of statically-resolved callees in the
	// synchronous body, for transitive closure.
	Calls []string

	// Acquires lists every lock acquisition with a stable root in the
	// synchronous body, in source order (see locks.go).
	Acquires []Acquire

	// CallsUnder lists every statically-resolved call made while at
	// least one lock root is held.
	CallsUnder []CallUnder

	// CallsWGDone / CallsWGWait report (*sync.WaitGroup).Done / .Wait
	// calls anywhere in the body, nested literals included: join
	// evidence for the lifecycle analyzer. After Resolve, transitive.
	CallsWGDone bool
	CallsWGWait bool

	// ClosesChans, SendsChans, and ReceivesChans list the canonical
	// roots (ExprRoot) of channels the body closes, sends on, and
	// receives from, nested literals included. A goroutine body that
	// closes a root some shutdown path receives from has a join path.
	// After Resolve, transitive.
	ClosesChans   []string
	SendsChans    []string
	ReceivesChans []string
}

// addRoot appends root to *set if non-empty and not already present.
func addRoot(set *[]string, root string) {
	if root == "" {
		return
	}
	for _, r := range *set {
		if r == root {
			return
		}
	}
	*set = append(*set, root)
}

// summarizeBody computes a FuncSummary for one body. sig may be nil
// (literals summarize their own FuncType separately).
func summarizeBody(info *types.Info, body *ast.BlockStmt) *FuncSummary {
	s := &FuncSummary{}
	seenCall := make(map[string]bool)

	// Blocking is a control-flow fact, not a syntactic one: build the
	// body's CFG and ask whether the exit is reachable. This is what
	// lets a `for { ... break }` decode loop stay non-blocking while
	// `for { work() }` is caught.
	s.Blocking = !reachesExit(NewCFG(body))

	// Pass 1 — synchronous effects: skip nested literals entirely.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			callee := typeutil.Callee(info, n)
			if callee == nil {
				return true
			}
			if io := DirectIO(callee); io != "" && s.IO == "" {
				s.IO = io
			}
			if name := Name(callee); name != "" && !seenCall[name] {
				seenCall[name] = true
				s.Calls = append(s.Calls, name)
			}
		}
		return true
	})

	// Pass 2 — lifetime signals: nested literals included, because a
	// spawned watcher that closes over ctx still stops the whole body.
	// Channel and WaitGroup effects ride along here for the same reason:
	// the close that joins a goroutine is often deferred inside it.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && isContext(obj.Type()) {
				s.Stops = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if isStopChan(info.TypeOf(n.X)) {
					s.Stops = true
				}
				addRoot(&s.ReceivesChans, ExprRoot(info, n.X))
			}
		case *ast.SendStmt:
			addRoot(&s.SendsChans, ExprRoot(info, n.Chan))
		case *ast.RangeStmt:
			if _, isChan := info.TypeOf(n.X).Underlying().(*types.Chan); isChan {
				addRoot(&s.ReceivesChans, ExprRoot(info, n.X))
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "close" {
					addRoot(&s.ClosesChans, ExprRoot(info, n.Args[0]))
				}
			}
			if callee := typeutil.Callee(info, n); callee != nil {
				if callee.Name() == "Done" && typeutil.IsMethodOf(callee, "sync", "WaitGroup") {
					s.Stops = true
					s.CallsWGDone = true
				}
				if callee.Name() == "Wait" && typeutil.IsMethodOf(callee, "sync", "WaitGroup") {
					s.CallsWGWait = true
				}
			}
		}
		return true
	})

	// Pass 3 — lock effects: a held-set walk of the statement tree (see
	// locks.go).
	walkLocks(info, s, body)
	return s
}

// reachesExit reports whether any path from the CFG entry reaches the
// synthetic exit block.
func reachesExit(c *CFG) bool {
	seen := make([]bool, len(c.Blocks))
	stack := []*Block{c.Blocks[0]}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == c.Exit {
			return true
		}
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// SummarizeLit summarizes a function literal at its use site (a `go
// func() {...}()` spawn). The literal's own parameters count toward
// ctx/stop detection exactly like a declaration's would.
func SummarizeLit(info *types.Info, lit *ast.FuncLit) *FuncSummary {
	s := summarizeBody(info, lit.Body)
	if tv, ok := info.Types[lit]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok {
			s.HasCtxParam = sigHasContext(sig)
		}
	}
	return s
}

// Summarize builds summaries for every function declaration in the
// files of one type-checked package.
func Summarize(info *types.Info, files []*ast.File) map[string]*FuncSummary {
	out := make(map[string]*FuncSummary)
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			name := Name(fn)
			if name == "" {
				continue
			}
			s := summarizeBody(info, fd.Body)
			s.Name = name
			if sig, ok := fn.Type().(*types.Signature); ok {
				s.HasCtxParam = sigHasContext(sig)
			}
			out[name] = s
		}
	}
	return out
}

func sigHasContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && typeutil.PkgPath(obj) == "context"
}

// isStopChan reports whether t is a channel of struct{} — the
// conventional stop/done signal.
func isStopChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// IsStopArg reports whether a call argument of type t hands the callee
// a way to learn about shutdown even when its body is out of sight: a
// context.Context, a struct{} channel, or a *sync.WaitGroup.
func IsStopArg(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		named, ok := ptr.Elem().(*types.Named)
		return ok && named.Obj().Name() == "WaitGroup" && typeutil.PkgPath(named.Obj()) == "sync"
	}
	return isContext(t) || isStopChan(t)
}

// An Index aggregates function summaries across packages and resolves
// transitive effects over the call graph.
type Index struct {
	funcs map[string]*FuncSummary
	// locks maps function name → transitive set of lock roots it
	// acquires, built by Resolve.
	locks map[string]map[string]bool
}

// NewIndex returns an empty summary index.
func NewIndex() *Index {
	return &Index{funcs: make(map[string]*FuncSummary)}
}

// Add merges one package's summaries into the index. Call Resolve after
// the last Add.
func (ix *Index) Add(sums map[string]*FuncSummary) {
	for name, s := range sums {
		ix.funcs[name] = s
	}
}

// Resolve closes IO, Blocking, Stops, the WaitGroup/channel join
// evidence, and the lock-acquisition sets transitively over Calls. Safe
// to call more than once; later Adds require a fresh Resolve.
func (ix *Index) Resolve() {
	for changed := true; changed; {
		changed = false
		for _, s := range ix.funcs {
			for _, callee := range s.Calls {
				t := ix.funcs[callee]
				if t == nil {
					continue
				}
				if s.IO == "" && t.IO != "" {
					s.IO = t.IO
					changed = true
				}
				if t.Blocking && !s.Blocking {
					s.Blocking = true
					changed = true
				}
				if t.Stops && !s.Stops {
					s.Stops = true
					changed = true
				}
				if t.CallsWGDone && !s.CallsWGDone {
					s.CallsWGDone = true
					changed = true
				}
				if t.CallsWGWait && !s.CallsWGWait {
					s.CallsWGWait = true
					changed = true
				}
				changed = mergeRoots(&s.ClosesChans, t.ClosesChans) || changed
				changed = mergeRoots(&s.SendsChans, t.SendsChans) || changed
				changed = mergeRoots(&s.ReceivesChans, t.ReceivesChans) || changed
			}
		}
	}

	// Transitive lock sets: the roots a function acquires itself or
	// through any statically-resolved callee. Computed after the effect
	// fixpoint so lockorder's call-under-lock edges see the full set.
	ix.locks = make(map[string]map[string]bool, len(ix.funcs))
	for name, s := range ix.funcs {
		set := make(map[string]bool)
		for _, a := range s.Acquires {
			set[a.Root] = true
		}
		ix.locks[name] = set
	}
	for changed := true; changed; {
		changed = false
		for name, s := range ix.funcs {
			set := ix.locks[name]
			for _, callee := range s.Calls {
				for root := range ix.locks[callee] {
					if !set[root] {
						set[root] = true
						changed = true
					}
				}
			}
		}
	}
}

// mergeRoots unions src into *dst, reporting whether anything was added.
func mergeRoots(dst *[]string, src []string) bool {
	added := false
	for _, r := range src {
		n := len(*dst)
		addRoot(dst, r)
		if len(*dst) != n {
			added = true
		}
	}
	return added
}

// Lookup returns the (resolved) summary for a qualified name, or nil
// when the function was not in any loaded package.
func (ix *Index) Lookup(name string) *FuncSummary {
	if ix == nil {
		return nil
	}
	return ix.funcs[name]
}

// ReachesIO returns the blocking I/O the named function transitively
// reaches, or "".
func (ix *Index) ReachesIO(name string) string {
	if s := ix.Lookup(name); s != nil {
		return s.IO
	}
	return ""
}

// BlockingOf evaluates a (possibly literal, unindexed) summary against
// the index: does the body loop forever, directly or through a callee?
func (ix *Index) BlockingOf(s *FuncSummary) bool {
	if s == nil {
		return false
	}
	if s.Blocking {
		return true
	}
	for _, c := range s.Calls {
		if t := ix.Lookup(c); t != nil && t.Blocking {
			return true
		}
	}
	return false
}

// StopsOf evaluates a summary against the index: can the body observe a
// stop signal, directly or through a callee?
func (ix *Index) StopsOf(s *FuncSummary) bool {
	if s == nil {
		return false
	}
	if s.Stops || s.HasCtxParam {
		return true
	}
	for _, c := range s.Calls {
		if t := ix.Lookup(c); t != nil && (t.Stops || t.HasCtxParam) {
			return true
		}
	}
	return false
}

// Names returns every indexed function name in sorted order, for
// deterministic whole-program iteration.
func (ix *Index) Names() []string {
	if ix == nil {
		return nil
	}
	names := make([]string, 0, len(ix.funcs))
	for name := range ix.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TransitiveLocks returns the sorted set of lock roots the named
// function acquires, directly or through any statically-resolved
// callee. Valid after Resolve.
func (ix *Index) TransitiveLocks(name string) []string {
	if ix == nil || ix.locks == nil {
		return nil
	}
	set := ix.locks[name]
	if len(set) == 0 {
		return nil
	}
	roots := make([]string, 0, len(set))
	for r := range set {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	return roots
}

// AcquireChain returns a shortest call chain (function names, starting
// at from) ending at a function that directly acquires root, or nil.
// BFS over Calls with sorted expansion keeps the witness deterministic.
func (ix *Index) AcquireChain(from, root string) []string {
	if ix == nil {
		return nil
	}
	type node struct {
		name string
		path []string
	}
	seen := map[string]bool{from: true}
	queue := []node{{from, []string{from}}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		s := ix.funcs[n.name]
		if s == nil {
			continue
		}
		for _, a := range s.Acquires {
			if a.Root == root {
				return n.path
			}
		}
		callees := append([]string(nil), s.Calls...)
		sort.Strings(callees)
		for _, c := range callees {
			if seen[c] || ix.locks[c] == nil || !ix.locks[c][root] {
				continue
			}
			seen[c] = true
			queue = append(queue, node{c, append(append([]string(nil), n.path...), c)})
		}
	}
	return nil
}
