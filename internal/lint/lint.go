// Package lint assembles the centurylint analyzer suite: the invariant
// checkers that turn this repository's hard-won determinism, durability,
// and lifetime discipline from code-review folklore into a pre-merge
// gate. Eight analyzers:
//
//   - simdeterminism: no wall clock or math/rand in virtual-time
//     packages, and no nondeterministic seeds into internal/rng anywhere
//   - lockedio: no blocking I/O while a mutex is held, transitively
//     across packages
//   - syncerr: no discarded Close/Sync/Flush/Truncate errors on
//     durability paths
//   - centurytime: no time.Duration arithmetic that can exceed int64
//     nanoseconds (~292 years)
//   - lockorder: no cycles in the whole-program lock-acquisition graph
//     (potential deadlocks); index-ordered accumulation is a safe
//     hierarchy
//   - atomicmix: no call of sync/atomic's function API; shared words
//     use the wrapper types (atomic.Int64, ...), which cannot be read or
//     written plainly
//   - lifecycle: no forever-looping goroutine without a stop signal;
//     every spawn in daemon packages tied to shutdown and joined; no
//     break in the cancellation chain from main into blocking loops
//   - waiveraudit: every //lint: waiver names a real directive, carries
//     a reason, and still suppresses a finding
//
// waiveraudit must stay last: it audits the suppression log the other
// analyzers populate while they run.
//
// Run the suite with `make lint` or `go run ./cmd/centurylint ./...`.
// See DESIGN.md §32–§33 for the invariants, the //lint: waiver
// directives, and the baseline gate, and S47 for the merges that took
// the suite from eleven analyzers to eight.
package lint

import (
	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/atomicmix"
	"centuryscale/internal/lint/centurytime"
	"centuryscale/internal/lint/lifecycle"
	"centuryscale/internal/lint/lockedio"
	"centuryscale/internal/lint/lockorder"
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
		centurytime.Analyzer,
		lockorder.Analyzer,
		atomicmix.Analyzer,
		lifecycle.Analyzer,
		waiveraudit.Analyzer,
	}
}
