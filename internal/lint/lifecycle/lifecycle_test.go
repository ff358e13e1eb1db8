package lifecycle_test

import (
	"testing"

	"centuryscale/internal/lint"
	"centuryscale/internal/lint/analysistest"
	"centuryscale/internal/lint/lifecycle"
)

func TestLifecycle(t *testing.T) {
	analysistest.Run(t, "testdata", lifecycle.Analyzer, "internal/daemon", "pure")
}

// TestSpawns runs the spawn rule outside DaemonPackages: every spawned
// forever-loop must be able to observe a stop signal.
func TestSpawns(t *testing.T) {
	analysistest.Run(t, "testdata", lifecycle.Analyzer, "spawns")
}

// TestCtxflow runs the cancellation-chain rules over a daemon-shaped
// package main that calls into cross-package loops.
func TestCtxflow(t *testing.T) {
	analysistest.Run(t, "testdata", lifecycle.Analyzer, "ctxflow")
}

// TestSuiteReportsSpawnOnce runs the whole suite over a daemon package
// whose one spawn loops forever untied: the defect must surface as one
// finding, not once per rule that can see it.
func TestSuiteReportsSpawnOnce(t *testing.T) {
	analysistest.RunSuite(t, "testdata", lint.Suite(), "internal/gateway")
}
