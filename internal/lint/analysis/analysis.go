// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface that centurylint's checkers
// need: an Analyzer descriptor, a per-package Pass carrying parsed files
// and full type information, and diagnostic reporting.
//
// The repository builds offline — no module proxy is reachable — so the
// real x/tools module cannot be pinned. This package deliberately mirrors
// its field and method names (Analyzer.Name/Doc/Run, Pass.Fset/Files/Pkg/
// TypesInfo, Pass.Reportf) so that migrating the checkers onto a pinned
// golang.org/x/tools is a mechanical import swap, not a rewrite. Features
// the checkers do not use (Requires, Facts, ResultOf) are omitted.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"centuryscale/internal/lint/dataflow"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// //lint:<name-specific-directive> suppression syntax (see Directive).
	Name string

	// Doc is the one-paragraph description printed by `centurylint -list`.
	Doc string

	// Directive is the suppression word recognised in //lint: comments for
	// this analyzer (e.g. "wallclock" for simdeterminism). A diagnostic
	// whose position is on, or directly below, a line carrying
	// //lint:<Directive> is dropped before it reaches the driver.
	Directive string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic that survives directive suppression.
	Report func(Diagnostic)

	// Summaries carries the cross-package call summaries computed in a
	// pre-pass over every loaded package. Analyzers that follow calls
	// across package boundaries (lockedio, lockorder, lifecycle) consult
	// it. It is never nil: the centurylint driver and analysistest, the
	// only code that builds a Pass, both set it.
	Summaries *dataflow.Index

	// Suppressions, when non-nil, records every //lint: directive line
	// that actually suppressed a diagnostic during this package's run.
	// The driver shares one log across the whole suite so waiveraudit
	// (which runs last) can flag stale waivers. Nil disables staleness
	// accounting — e.g. under -only, when the suppressed analyzer may
	// simply not have run.
	Suppressions *SuppressionLog

	// Directives maps every suppression word the assembled suite
	// recognises to its analyzer name (waiveraudit's ground truth for
	// "unknown directive"). Nil outside suite runs.
	Directives map[string]string

	// directiveLines caches, per file, the lines carrying this
	// analyzer's suppression directive.
	directiveLines map[*ast.File]directives
}

// A SuppressionLog records which //lint: directive lines earned their
// keep by suppressing at least one diagnostic.
type SuppressionLog struct {
	used map[suppKey]bool
}

type suppKey struct {
	file string
	line int
}

// NewSuppressionLog returns an empty log.
func NewSuppressionLog() *SuppressionLog {
	return &SuppressionLog{used: make(map[suppKey]bool)}
}

// Use marks the directive on file:line as having suppressed a finding.
func (l *SuppressionLog) Use(file string, line int) {
	l.used[suppKey{file, line}] = true
}

// Used reports whether the directive on file:line suppressed anything.
func (l *SuppressionLog) Used(file string, line int) bool {
	return l.used[suppKey{file, line}]
}

// A Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos unless a suppression
// directive covers that line. A suppressed diagnostic is recorded in
// the shared SuppressionLog (when present), which is how waiveraudit
// distinguishes a load-bearing waiver from a stale one.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if file, line, ok := p.suppressionSite(pos); ok {
		if p.Suppressions != nil {
			p.Suppressions.Use(file, line)
		}
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether pos sits on a line annotated with this
// analyzer's //lint: directive — either trailing the offending line or as
// a standalone comment on the line directly above it. A trailing
// directive waives only its own line: it must not bleed onto the next
// statement. The directive is an explicit, reviewable waiver: it exists
// so the daemon/network layer can keep its genuine wall-clock uses, and
// so intentionally-locked WAL I/O can state its contract at the call
// site.
func (p *Pass) Suppressed(pos token.Pos) bool {
	_, _, ok := p.suppressionSite(pos)
	return ok
}

// suppressionSite resolves the directive line (filename, line number)
// that waives a diagnostic at pos, if any.
func (p *Pass) suppressionSite(pos token.Pos) (string, int, bool) {
	if p.Analyzer == nil || p.Analyzer.Directive == "" || !pos.IsValid() {
		return "", 0, false
	}
	file := p.fileFor(pos)
	if file == nil {
		return "", 0, false
	}
	d := p.directivesIn(file)
	position := p.Fset.Position(pos)
	if d.any[position.Line] {
		return position.Filename, position.Line, true
	}
	if d.standalone[position.Line-1] {
		return position.Filename, position.Line - 1, true
	}
	return "", 0, false
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

type directives struct {
	any        map[int]bool // lines carrying the directive, trailing or not
	standalone map[int]bool // directive lines with no code on them
}

func (p *Pass) directivesIn(file *ast.File) directives {
	if d, ok := p.directiveLines[file]; ok {
		return d
	}
	want := "//lint:" + p.Analyzer.Directive
	d := directives{any: make(map[int]bool), standalone: make(map[int]bool)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !matchesDirective(c.Text, want) {
				continue
			}
			d.any[p.Fset.Position(c.Pos()).Line] = true
		}
	}
	if len(d.any) > 0 {
		// A directive line is standalone when no syntax starts on it —
		// then (and only then) it covers the line below.
		codeLines := make(map[int]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup:
				// Comments are not code: a Doc comment attached to a
				// declaration is still a standalone directive line.
				return true
			}
			codeLines[p.Fset.Position(n.Pos()).Line] = true
			return true
		})
		for line := range d.any {
			if !codeLines[line] {
				d.standalone[line] = true
			}
		}
	}
	if p.directiveLines == nil {
		p.directiveLines = make(map[*ast.File]directives)
	}
	p.directiveLines[file] = d
	return d
}

// matchesDirective accepts `//lint:word` exactly or followed by a space
// and a free-form justification, which the style in this repository
// treats as mandatory in spirit: a bare waiver with no reason should not
// survive review.
func matchesDirective(text, want string) bool {
	if len(text) < len(want) || text[:len(want)] != want {
		return false
	}
	rest := text[len(want):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}
