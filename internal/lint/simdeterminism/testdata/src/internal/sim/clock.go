// Fixture: a virtual-time package (path suffix internal/sim) that leaks
// wall-clock reads and ambient randomness — every class simdeterminism
// must catch, plus the legal uses it must leave alone.
package sim

import (
	"math/rand" // want `virtual-time package internal/sim imports math/rand`
	"time"
)

// Durations are the currency of virtual time: arithmetic on them is legal.
const tick = 250 * time.Millisecond

func bad() time.Duration {
	start := time.Now()          // want `time\.Now reads the wall clock inside virtual-time package internal/sim`
	elapsed := time.Since(start) // want `time\.Since reads the wall clock`
	time.Sleep(tick)             // want `time\.Sleep reads the wall clock`
	<-time.After(tick)           // want `time\.After reads the wall clock`
	t := time.NewTicker(tick)    // want `time\.NewTicker reads the wall clock`
	t.Stop()
	_ = rand.Int() // the import diagnostic covers every use
	return elapsed
}

// A wall-clock function smuggled out as a value is still a wall-clock read.
var clock = time.Now // want `time\.Now reads the wall clock`

func waived() int64 {
	//lint:wallclock boot banner timestamp; never enters the simulation
	stamp := time.Now().UnixNano()
	trailing := time.Now().UnixNano() //lint:wallclock same line form
	return stamp + trailing
}

//lint:wallclock doc-comment placement: the directive is the decl's Doc node
func waivedAtDeclLevel() int64 { return time.Now().UnixNano() }

func notCovered() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}
