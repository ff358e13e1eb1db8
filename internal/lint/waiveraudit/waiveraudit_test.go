package waiveraudit_test

import (
	"testing"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/analysistest"
	"centuryscale/internal/lint/centurytime"
	"centuryscale/internal/lint/waiveraudit"
)

// waiveraudit is only meaningful inside a suite: it audits directives
// recognised by the other analyzers and consumes the suppression log
// they populate. Run it the way lint.Suite does — after a real
// analyzer, sharing one log.
func TestWaiveraudit(t *testing.T) {
	analysistest.RunSuite(t, "testdata",
		[]*analysis.Analyzer{centurytime.Analyzer, waiveraudit.Analyzer},
		"waiveraudit")
}
