// Package lint assembles the centurylint analyzer suite: the invariant
// checkers that turn this repository's hard-won determinism, durability,
// and lifetime discipline from code-review folklore into a pre-merge
// gate.
//
//   - simdeterminism: no wall clock or math/rand in virtual-time packages
//   - lockedio: no blocking I/O while a mutex is held, transitively
//     across packages
//   - syncerr: no discarded Close/Sync/Flush/Truncate errors on
//     durability paths
//   - seedflow: no nondeterministic seeds into internal/rng
//   - centurytime: no time.Duration arithmetic that can exceed int64
//     nanoseconds (~292 years)
//   - goroleak: no forever-looping goroutines that cannot observe a
//     stop signal
//   - ctxflow: no breaks in the cancellation chain from cmd/*d mains
//     into blocking loops
//   - lockorder: no cycles in the whole-program lock-acquisition graph
//     (potential deadlocks); index-ordered accumulation is a safe
//     hierarchy
//   - atomicmix: no struct field accessed both through sync/atomic and
//     by plain load/store
//   - lifecycle: every goroutine spawned in daemon packages is tied to
//     shutdown and has a join path
//   - waiveraudit: every //lint: waiver names a real directive, carries
//     a reason, and still suppresses a finding
//
// waiveraudit must stay last: it audits the suppression log the other
// analyzers populate while they run.
//
// Run the suite with `make lint` or `go run ./cmd/centurylint ./...`.
// See DESIGN.md §32–§33 for the invariants, the //lint: waiver
// directives, and the baseline gate.
package lint

import (
	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/atomicmix"
	"centuryscale/internal/lint/centurytime"
	"centuryscale/internal/lint/ctxflow"
	"centuryscale/internal/lint/goroleak"
	"centuryscale/internal/lint/lifecycle"
	"centuryscale/internal/lint/lockedio"
	"centuryscale/internal/lint/lockorder"
	"centuryscale/internal/lint/seedflow"
	"centuryscale/internal/lint/simdeterminism"
	"centuryscale/internal/lint/syncerr"
	"centuryscale/internal/lint/waiveraudit"
)

// Suite returns the analyzers in deterministic order, waiveraudit last.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdeterminism.Analyzer,
		lockedio.Analyzer,
		syncerr.Analyzer,
		seedflow.Analyzer,
		centurytime.Analyzer,
		goroleak.Analyzer,
		ctxflow.Analyzer,
		lockorder.Analyzer,
		atomicmix.Analyzer,
		lifecycle.Analyzer,
		waiveraudit.Analyzer,
	}
}
