package simdeterminism_test

import (
	"testing"

	"centuryscale/internal/lint/analysistest"
	"centuryscale/internal/lint/simdeterminism"
)

// The internal/sim fixture must produce exactly its want-annotated
// diagnostics (failing fixtures); the internal/daemon fixture uses the
// same wall-clock functions outside the virtual-time set and must stay
// silent (passing fixture).
func TestAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", simdeterminism.Analyzer,
		"internal/sim", "internal/daemon")
}

// TestSeeds runs the seeds fixture, which sits outside the virtual-time
// set: only its rng.New seeds are reported.
func TestSeeds(t *testing.T) {
	analysistest.Run(t, "testdata", simdeterminism.Analyzer, "seeds")
}
