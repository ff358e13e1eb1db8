// Package waiveraudit implements the centurylint analyzer that audits
// the other analyzers' waivers.
//
// A //lint:<directive> comment is a standing exception to a safety
// invariant, and on this repository's timescales exceptions outlive
// their authors: the waived call gets refactored away, the directive
// stays, and five years later it silently swallows a brand-new finding
// on the same line. waiveraudit keeps the waiver set exactly as large
// as the set of real, justified exceptions:
//
//   - every //lint: directive must name a directive some analyzer in
//     the suite actually recognises (a typo like //lint:lockedoi would
//     otherwise waive nothing, forever, without anyone noticing);
//   - every waiver must carry a free-form reason after the directive
//     word — a bare waiver is an unreviewable "trust me" (a nested
//     //-comment does not count as a reason);
//   - every waiver must still suppress at least one finding. The
//     analyzers record each directive line that absorbed a diagnostic
//     in the pass's shared SuppressionLog; waiveraudit runs last in the
//     suite and flags the lines that absorbed nothing as stale.
//
// The staleness check is only sound when the whole suite ran — under
// `centurylint -only <analyzer>` the suppressed analyzer may simply not
// have executed — so the driver disables it (nil SuppressionLog) in
// that mode. waiveraudit itself has no suppression directive: waivers
// of the waiver audit are not a thing.
package waiveraudit

import (
	"go/ast"
	"sort"
	"strings"

	"centuryscale/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:      "waiveraudit",
	Directive: "", // deliberately unwaivable
	Doc: "audit //lint: waivers: the directive must be one the suite recognises, " +
		"must carry a reason, and must still suppress a real finding (stale " +
		"waivers are errors)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				auditComment(pass, c)
			}
		}
	}
	return nil
}

func auditComment(pass *analysis.Pass, c *ast.Comment) {
	rest, ok := strings.CutPrefix(c.Text, "//lint:")
	if !ok {
		return
	}
	word, reason := rest, ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		word, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	// A nested //-comment (a test harness expectation, a stray TODO) is
	// not a justification.
	if i := strings.Index(reason, "//"); i >= 0 {
		reason = strings.TrimSpace(reason[:i])
	}

	if pass.Directives != nil {
		if _, known := pass.Directives[word]; !known {
			pass.Reportf(c.Pos(),
				"unknown suppression directive //lint:%s waives nothing, forever; the suite recognises: %s",
				word, strings.Join(knownWords(pass), ", "))
			return
		}
	}
	if reason == "" {
		pass.Reportf(c.Pos(),
			"waiver //lint:%s must carry a reason: a standing exception with no justification is unreviewable for the decades it will live",
			word)
		return
	}
	if pass.Suppressions != nil {
		pos := pass.Fset.Position(c.Pos())
		if !pass.Suppressions.Used(pos.Filename, pos.Line) {
			pass.Reportf(c.Pos(),
				"stale waiver: //lint:%s suppresses no finding on this line; delete it before it silently swallows the next real one",
				word)
		}
	}
}

func knownWords(pass *analysis.Pass) []string {
	words := make([]string, 0, len(pass.Directives))
	for w := range pass.Directives {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}
