// Fixture for simdeterminism's seed rule, which runs in every package:
// rng sources built from nondeterministic seeds (the classes that break
// seed-identified replay) versus seeds that flow from configuration.
package seeds

import (
	"math/rand"
	"os"
	"time"

	"centuryscale/internal/rng"
)

func bad() {
	_ = rng.New(uint64(time.Now().UnixNano())) // want `rng\.New seeded from time\.Now`
	_ = rng.New(rand.Uint64())                 // want `rng\.New seeded from math/rand\.Uint64`
	_ = rng.New(uint64(os.Getpid()) << 1)      // want `rng\.New seeded from os\.Getpid`
}

func good(seed uint64) {
	src := rng.New(seed)
	child := src.Split("radio-noise")
	_ = child
	_ = rng.New(42)
}

func waived() {
	//lint:wallclock throwaway smoke source; never identifies an experiment
	_ = rng.New(uint64(time.Now().UnixNano()))
}
