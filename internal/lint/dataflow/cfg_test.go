package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func parseFunc(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// TestCFG pins the block structure for each control-flow construct the
// builder models. The golden strings are the CFG's own String() format:
// one block per line, nodes in brackets, successor indices at the end,
// b0 the entry and the synthetic exit marked.
func TestCFG(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "if-else",
			src: `func f(a int) int {
	x := 1
	if a > 0 {
		x = 2
	} else {
		x = 3
	}
	return x
}`,
			want: `
b0: [x := 1] [a > 0] -> b2 b4
b1: (exit)
b2: [x = 2] -> b3
b3: [return x] -> b1
b4: [x = 3] -> b3
b5: -> b1
`,
		},
		{
			name: "for-with-post",
			src: `func f() {
	s := 0
	for i := 0; i < 10; i++ {
		s += i
	}
	_ = s
}`,
			want: `
b0: [s := 0] [i := 0] -> b2
b1: (exit)
b2: [i < 10] -> b3 b4
b3: [s += i] -> b5
b4: [_ = s] -> b1
b5: [i++] -> b2
`,
		},
		{
			// The nil-condition loop has no head->after edge: the only
			// way out is the break. This is the exact fact lifecycle's
			// forever-loop rule rests on (the Blocking bit).
			name: "forever-break-continue",
			src: `func f() {
	for {
		if stop() {
			break
		}
		continue
	}
	done()
}`,
			want: `
b0: -> b2
b1: (exit)
b2: -> b3
b3: [stop()] -> b5 b6
b4: [done()] -> b1
b5: -> b4
b6: -> b2
b7: -> b6
b8: -> b2
`,
		},
		{
			name: "select-in-loop",
			src: `func f(ch chan int, stop chan struct{}) {
	for {
		select {
		case v := <-ch:
			use(v)
		case <-stop:
			return
		}
	}
}`,
			want: `
b0: -> b2
b1: (exit)
b2: -> b3
b3: -> b6 b7
b4: -> b1
b5: -> b2
b6: [v := <-ch] [use(v)] -> b5
b7: [<-stop] [return] -> b1
b8: -> b5
`,
		},
		{
			// defer registers in straight line — its body is not inlined
			// — and goto resolves through the label table, here into a
			// self-loop.
			name: "defer-label-goto",
			src: `func f() {
	defer cleanup()
L:
	work()
	goto L
}`,
			want: `
b0: [defer cleanup()] -> b2
b1: (exit)
b2: [work()] -> b2
b3: -> b1
`,
		},
		{
			name: "switch-fallthrough-default",
			src: `func f(n int) {
	switch n {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	default:
		other()
	}
}`,
			want: `
b0: [n] -> b3 b4 b5
b1: (exit)
b2: -> b1
b3: [1] [one()] -> b4
b4: [2] [two()] -> b2
b5: [other()] -> b2
`,
		},
		{
			// defer inside a loop body registers once per iteration but
			// never splices the unlock into the loop's flow: the defer
			// node sits in the body block and the walk sees the lock as
			// net-held. This is the shape the lock walker's
			// defer-unlock-in-loop accumulation rests on.
			name: "defer-unlock-in-loop",
			src: `func f(mus []Mutex) {
	for i := range mus {
		mus[i].Lock()
		defer mus[i].Unlock()
	}
}`,
			want: `
b0: [mus] -> b2
b1: (exit)
b2: [range i] -> b3 b4
b3: [mus[i].Lock()] [defer mus[i].Unlock()] -> b2
b4: -> b1
`,
		},
		{
			// A lock split across if/else arms: both arms rejoin at the
			// same block, so a flow walk that clones held-sets per branch
			// must merge — neither arm's acquisition leaks past the join
			// unconditionally.
			name: "lock-split-if-else",
			src: `func f(c bool) {
	if c {
		mu.Lock()
	} else {
		mu.RLock()
	}
	work()
	if c {
		mu.Unlock()
	} else {
		mu.RUnlock()
	}
}`,
			want: `
b0: [c] -> b2 b4
b1: (exit)
b2: [mu.Lock()] -> b3
b3: [work()] [c] -> b5 b7
b4: [mu.RLock()] -> b3
b5: [mu.Unlock()] -> b6
b6: -> b1
b7: [mu.RUnlock()] -> b6
`,
		},
		{
			// Method values: f := mu.Lock captures the receiver, and the
			// later call site is a bare f() — the selector appears only in
			// the assignment node. Effect analyses keyed on call-site
			// selectors are conservatively blind here; the CFG still
			// records both statements in order.
			name: "method-value-lock",
			src: `func f() {
	lock := mu.Lock
	unlock := mu.Unlock
	lock()
	work()
	unlock()
}`,
			want: `
b0: [lock := mu.Lock] [unlock := mu.Unlock] [lock()] [work()] [unlock()] -> b1
b1: (exit)
`,
		},
		{
			// The range head carries the RangeStmt node standing for the
			// per-iteration key/value definition.
			name: "range",
			src: `func f(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}`,
			want: `
b0: [s := 0] [xs] -> b2
b1: (exit)
b2: [range _, v] -> b3 b4
b3: [s += v] -> b2
b4: [return s] -> b1
b5: -> b1
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewCFG(parseFunc(t, tt.src)).String()
			if got != strings.TrimPrefix(tt.want, "\n") {
				t.Errorf("CFG mismatch\n got:\n%s\nwant:\n%s", got, tt.want)
			}
		})
	}
}

func checkFunc(t *testing.T, src string) (*ast.BlockStmt, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body, info
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// lastUse finds the last use of the named identifier in the body.
func lastUse(body *ast.BlockStmt, name string) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = id
		}
		return true
	})
	return found
}

func rhsStrings(defs []Def) []string {
	var out []string
	for _, d := range defs {
		if d.Rhs == nil {
			out = append(out, "<opaque>")
		} else {
			out = append(out, types.ExprString(d.Rhs))
		}
	}
	return out
}

func TestReachingDefs(t *testing.T) {
	tests := []struct {
		name string
		src  string
		varr string
		want []string // expected Rhs renderings, any order; nil = untracked
	}{
		{
			name: "branch-join",
			src: `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`,
			varr: "x",
			want: []string{"1", "2"},
		},
		{
			name: "shadowed-in-block",
			src: `package p
func f() int {
	x := 1
	x = 2
	return x
}`,
			varr: "x",
			want: []string{"2"},
		},
		{
			name: "loop-carried",
			src: `package p
func f(n int) int {
	x := 1
	for i := 0; i < n; i++ {
		x = x * 2
	}
	return x
}`,
			varr: "x",
			want: []string{"1", "x * 2"},
		},
		{
			name: "address-taken-untracked",
			src: `package p
func g(*int)
func f() int {
	x := 1
	g(&x)
	return x
}`,
			varr: "x",
			want: nil,
		},
		{
			name: "closure-write-untracked",
			src: `package p
func f() int {
	x := 1
	h := func() { x = 2 }
	h()
	return x
}`,
			varr: "x",
			want: nil,
		},
		{
			name: "param-untracked",
			src: `package p
func f(x int) int {
	return x
}`,
			varr: "x",
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			body, info := checkFunc(t, tt.src)
			use := lastUse(body, tt.varr)
			if use == nil {
				t.Fatalf("no use of %s", tt.varr)
			}
			cfg := NewCFG(body)
			r := ReachingDefs(cfg, body, info)
			defs, ok := r.At(use)
			if tt.want == nil {
				if ok {
					t.Fatalf("At(%s) = %v, want untracked", tt.varr, rhsStrings(defs))
				}
				return
			}
			if !ok {
				t.Fatalf("At(%s) untracked, want %v", tt.varr, tt.want)
			}
			got := rhsStrings(defs)
			if len(got) != len(tt.want) {
				t.Fatalf("At(%s) = %v, want %v", tt.varr, got, tt.want)
			}
			for _, w := range tt.want {
				found := false
				for _, g := range got {
					if g == w {
						found = true
					}
				}
				if !found {
					t.Fatalf("At(%s) = %v, missing %v", tt.varr, got, w)
				}
			}
		})
	}
}
