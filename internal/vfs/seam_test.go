package vfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestWritersUseTheSeam parses the non-test files of the two packages
// that write the archive, internal/tsdb and internal/cloud, and fails on
// any call that changes the disk through package os directly: such a
// write is invisible to the fault injectors that stand in for FS, and so
// to every crash table built on them. Two calls predate the seam and are
// allowed by name: the log directory's creation in openWAL, and the
// removal of the retired per-shard log directories in DB.Checkpoint.
func TestWritersUseTheSeam(t *testing.T) {
	mutating := map[string]bool{
		"OpenFile": true, "Create": true, "Remove": true, "RemoveAll": true,
		"Rename": true, "Truncate": true, "Mkdir": true, "MkdirAll": true,
		"WriteFile": true,
	}
	allowed := map[string]bool{
		"tsdb openWAL os.MkdirAll":        true,
		"tsdb DB.Checkpoint os.RemoveAll": true,
	}
	seen := map[string]bool{}
	for _, pkg := range []string{"tsdb", "cloud"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in ../%s", pkg)
		}
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			osName := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"os"` {
					osName = "os"
					if imp.Name != nil {
						osName = imp.Name.Name
					}
				}
			}
			if osName == "" {
				continue
			}
			for _, decl := range f.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); !ok || id.Name != osName || !mutating[sel.Sel.Name] {
						return true
					}
					site := pkg + " " + funcName(decl) + " os." + sel.Sel.Name
					if !allowed[site] {
						t.Errorf("%s: %s writes the disk around vfs.FS", fset.Position(call.Pos()), site)
					}
					seen[site] = true
					return true
				})
			}
		}
	}
	for site := range allowed {
		if !seen[site] {
			t.Errorf("allowed call %s no longer exists: drop it from the list", site)
		}
	}
}

// funcName names a top-level declaration as "Func" or "Recv.Method".
func funcName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "(package scope)"
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
