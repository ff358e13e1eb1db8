//go:build race

package cluster

// raceEnabled: under the race detector sync.Pool deliberately drops a
// quarter of its Puts, so pooled paths miss at random.
const raceEnabled = true
