// Package analysistest runs a centurylint analyzer over fixture packages
// and checks its diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures follow the upstream GOPATH-shaped layout: the fixture package
// with import path P lives in <testdata>/src/P/. Fixture packages may
// import each other (resolved from source, recursively) and may import
// anything the surrounding module can build — stdlib or centuryscale
// packages — which is resolved through `go list -export` export data,
// exactly like the real driver. This keeps fixtures honest: they are
// type-checked with the true signatures of time.Now, sync.Mutex, or
// centuryscale/internal/rng, so an analyzer cannot pass its tests by
// matching on syntax the type checker would never produce.
//
// Expectations: a diagnostic must be reported on every line carrying a
// `// want "re"` comment (one regexp per expected diagnostic, matched
// against the message), and on no other line.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/dataflow"
	"centuryscale/internal/lint/loader"
)

// Run loads each fixture package (an import path under testdata/src),
// applies the analyzer, and reports mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	RunSuite(t, testdata, []*analysis.Analyzer{a}, pkgPaths...)
}

// RunSuite runs several analyzers over the fixtures exactly as the
// centurylint driver would: every fixture package (including the local
// packages they import) is summarized into one dataflow.Index first, so
// cross-package analyzers see transitive effects; the analyzers then
// run in order per package sharing one suppression log, so waiveraudit
// — placed last, as in lint.Suite — can audit the other analyzers'
// waivers. Diagnostics from all analyzers are matched against the
// fixtures' // want comments together.
func RunSuite(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &fixtureLoader{
		src:    filepath.Join(testdata, "src"),
		fset:   token.NewFileSet(),
		loaded: make(map[string]*fixturePkg),
	}
	if err := l.resolveExternals(pkgPaths); err != nil {
		t.Fatal(err)
	}
	for _, path := range pkgPaths {
		if _, err := l.load(path); err != nil {
			t.Fatalf("fixture %s: %v", path, err)
		}
	}

	// Summary pre-pass over everything loaded, local imports included.
	index := dataflow.NewIndex()
	for _, pkg := range l.loaded {
		index.Add(dataflow.Summarize(pkg.info, pkg.files))
	}
	index.Resolve()

	directives := make(map[string]string)
	for _, a := range analyzers {
		if a.Directive != "" {
			directives[a.Directive] = a.Name
		}
	}

	for _, path := range pkgPaths {
		pkg := l.loaded[path]
		checkPackage(t, analyzers, l.fset, pkg, index, directives)
	}
}

type fixturePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type fixtureLoader struct {
	src      string
	fset     *token.FileSet
	loaded   map[string]*fixturePkg
	importer types.Importer
}

func (l *fixtureLoader) dirOf(path string) string {
	return filepath.Join(l.src, filepath.FromSlash(path))
}

func (l *fixtureLoader) isLocal(path string) bool {
	fi, err := os.Stat(l.dirOf(path))
	return err == nil && fi.IsDir()
}

func (l *fixtureLoader) goFiles(path string) ([]string, error) {
	entries, err := os.ReadDir(l.dirOf(path))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files under %s", l.dirOf(path))
	}
	return files, nil
}

// resolveExternals walks the fixture import graph, gathers every import
// that is not a testdata-local package, and builds the export-data
// importer for them in one `go list` invocation.
func (l *fixtureLoader) resolveExternals(roots []string) error {
	seen := make(map[string]bool)
	external := make(map[string]bool)
	var visit func(path string) error
	visit = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		files, err := l.goFiles(path)
		if err != nil {
			return err
		}
		parsed, err := loader.ParseDir(l.fset, l.dirOf(path), files)
		if err != nil {
			return err
		}
		for _, f := range parsed {
			for _, imp := range f.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				if ipath == "unsafe" {
					continue
				}
				if l.isLocal(ipath) {
					if err := visit(ipath); err != nil {
						return err
					}
				} else {
					external[ipath] = true
				}
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := visit(r); err != nil {
			return err
		}
	}

	exports := make(map[string]string)
	if len(external) > 0 {
		args := []string{"-export", "-deps"}
		for p := range external {
			args = append(args, p)
		}
		sort.Strings(args[2:])
		listed, err := loader.GoList(".", args...)
		if err != nil {
			return err
		}
		exports = loader.ExportMap(listed)
	}
	l.importer = loader.NewImporter(l.fset, exports, func(path string) (*types.Package, error) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	})
	return nil
}

// load parses and type-checks one testdata-local package, memoized.
func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	files, err := l.goFiles(path)
	if err != nil {
		return nil, err
	}
	parsed, err := loader.ParseDir(l.fset, l.dirOf(path), files)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := loader.Check(l.fset, path, parsed, l.importer)
	if err != nil {
		return nil, err
	}
	p := &fixturePkg{path: path, files: parsed, types: tpkg, info: info}
	l.loaded[path] = p
	return p, nil
}

func checkPackage(t *testing.T, analyzers []*analysis.Analyzer, fset *token.FileSet, pkg *fixturePkg, index *dataflow.Index, directives map[string]string) {
	t.Helper()
	var got []analysis.Diagnostic
	log := analysis.NewSuppressionLog()
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:     a,
			Fset:         fset,
			Files:        pkg.files,
			Pkg:          pkg.types,
			TypesInfo:    pkg.info,
			Summaries:    index,
			Suppressions: log,
			Directives:   directives,
			Report:       func(d analysis.Diagnostic) { got = append(got, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: analyzer failed on %s: %v", a.Name, pkg.path, err)
		}
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.files {
		filename := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, ok, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s:%d: %v", filename, fset.Position(c.Pos()).Line, err)
				}
				if !ok {
					continue
				}
				k := key{filename, fset.Position(c.Pos()).Line}
				wants[k] = append(wants[k], patterns...)
			}
		}
	}

	for _, d := range got {
		p := fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		idx := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("%s:%d: unexpected diagnostic: %s", p.Filename, p.Line, d.Message)
			continue
		}
		wants[k] = append(wants[k][:idx], wants[k][idx+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// parseWant extracts the regexps from a `// want "re" "re"` comment.
// The marker may be embedded later in the comment text — a //lint:
// directive line carries its expectation inside the same comment, since
// a line comment runs to end of line. The second result is false when
// the comment holds no want marker at all.
func parseWant(text string) ([]*regexp.Regexp, bool, error) {
	idx := strings.Index(text, "// want ")
	if idx < 0 {
		return nil, false, nil
	}
	rest := text[idx+len("// want "):]
	var out []*regexp.Regexp
	rest = strings.TrimSpace(rest)
	for rest != "" {
		var quote byte
		switch rest[0] {
		case '"', '`':
			quote = rest[0]
		default:
			return nil, false, fmt.Errorf("want: expected quoted regexp, found %q", rest)
		}
		end := strings.IndexByte(rest[1:], quote)
		if end < 0 {
			return nil, false, fmt.Errorf("want: unterminated pattern %q", rest)
		}
		pat := rest[1 : 1+end]
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, false, fmt.Errorf("want: bad regexp %q: %v", pat, err)
		}
		out = append(out, re)
		rest = strings.TrimSpace(rest[2+end:])
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf("want: no patterns")
	}
	return out, true, nil
}
