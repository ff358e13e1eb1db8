// Fixture for lifecycle's cancellation-chain rules: a daemon-shaped
// package main must keep the chain intact into cross-package loops.
package main

import (
	"context"

	"ctxflow/loop"
)

func main() {
	// Creating the root context in main is the one legitimate place for
	// context.Background: main has no ctx parameter.
	ctx := context.Background()
	loop.RunCtx(ctx)
	loop.Run()    // want "loops forever but takes no context"
	runLocally()  // want "loops forever but takes no context"
	loop.Finite() // returns on its own: not an orphaned loop
}

// runLocally is a same-package orphaned loop; the index covers the main
// package too.
func runLocally() {
	for {
		step()
	}
}

func step() {}

// handle receives a ctx and must not resurrect a fresh root.
func handle(ctx context.Context) {
	fresh := context.Background() // want "resurrects an un-cancellable root"
	todo := context.TODO()        // want "resurrects an un-cancellable root"
	_ = fresh
	_ = todo
	_ = ctx
}

// handleLit: literals may start a detached lifecycle; the resurrection
// check does not descend into them (the spawn rules audit their
// lifetime).
func handleLit(ctx context.Context) {
	f := func() context.Context { return context.Background() }
	_ = f()
	_ = ctx
}

// noCtx has no ctx parameter, so a fresh root is the only option.
func noCtx() context.Context {
	return context.Background()
}
