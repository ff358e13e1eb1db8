package rng_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"centuryscale/internal/rng"
)

// These tests document the contract the seedflow analyzer
// (internal/lint/seedflow) enforces at construction sites: a seed fully
// determines the stream — across goroutine interleavings, across
// processes, across machines. seedflow guards the input side (no
// wall-clock or ambient-random seeds can reach rng.New); these tests pin
// the output side (given the seed, nothing else influences the draws).

// streamDigest runs a representative mix of the generator's methods —
// raw draws, distributions, and stream splitting — and folds the results
// into one hash.
func streamDigest(seed uint64) uint64 {
	src := rng.New(seed)
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	child := src.Split("determinism-test")
	for i := 0; i < 4096; i++ {
		put(src.Uint64())
		put(uint64(src.Intn(1_000_003)))
		put(uint64(int64(src.Exponential(7.5) * 1e9)))
		put(child.Uint64())
	}
	return h.Sum64()
}

// TestSameSeedSameStreamAcrossGoroutines drives many generators with the
// same seed concurrently, under deliberate scheduler churn, and requires
// bit-identical streams. A generator that shared hidden global state, or
// was perturbed by anything other than its own seed, fails here.
func TestSameSeedSameStreamAcrossGoroutines(t *testing.T) {
	const goroutines = 16
	const seed = 0xC0FFEE

	digests := make([]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			digests[g] = streamDigest(seed)
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if digests[g] != digests[0] {
			t.Fatalf("goroutine %d produced digest %#x, goroutine 0 produced %#x: stream depends on interleaving", g, digests[g], digests[0])
		}
	}
	if digests[0] != streamDigest(seed) {
		t.Fatalf("concurrent digest differs from sequential digest for the same seed")
	}
}

// TestSameSeedSameStreamAcrossProcesses re-executes this test binary
// twice as child processes, each printing the digest for a fixed seed,
// and requires the two independent process outputs to match each other
// and the in-process value. This is the strongest offline approximation
// of the real contract: a seed logged in EXPERIMENTS.md regenerates the
// run on another machine, another day.
func TestSameSeedSameStreamAcrossProcesses(t *testing.T) {
	const seed = 1889 // the Eiffel Tower: infrastructure that outlived its design horizon
	if os.Getenv("RNG_DETERMINISM_CHILD") == "1" {
		fmt.Printf("digest=%#x\n", streamDigest(seed))
		return
	}

	run := func() string {
		cmd := exec.Command(os.Args[0], "-test.run=TestSameSeedSameStreamAcrossProcesses$", "-test.v")
		cmd.Env = append(os.Environ(), "RNG_DETERMINISM_CHILD=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		// Only what the child printed: the runner's own "--- PASS (0.01s)"
		// line carries a wall-clock time, and comparing it made this test
		// fail whenever the two children straddled a 10 ms boundary.
		for _, line := range strings.SplitAfter(string(out), "\n") {
			if strings.HasPrefix(line, "digest=") {
				return line
			}
		}
		t.Fatalf("child printed no digest:\n%s", out)
		return ""
	}

	first, second := run(), run()
	if first != second {
		t.Fatalf("two processes with the same seed diverged:\n%s\nvs\n%s", first, second)
	}
	want := fmt.Sprintf("digest=%#x\n", streamDigest(seed))
	if !strings.Contains(first, want) {
		t.Fatalf("child output %q does not contain in-process digest %q", first, want)
	}
}
