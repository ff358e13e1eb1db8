// Fixture for lifecycle's spawn rule outside DaemonPackages: every
// spawned forever-loop must be able to observe a stop signal.
package spawns

import (
	"context"
	"sync"
)

func work() {}

// leakLit spawns a literal that loops forever with nothing watching for
// shutdown.
func leakLit() {
	go func() { // want "goroutine runs forever with no stop signal"
		for {
			work()
		}
	}()
}

// leakNamed spawns a named forever-loop with no stop path.
func leakNamed() {
	go runForever() // want "goroutine runs forever with no stop signal"
}

func runForever() {
	for {
		work()
	}
}

// leakTransitive loops forever only through a callee — the summary
// index must close Blocking over the call graph.
func leakTransitive() {
	go wrapper() // want "goroutine runs forever with no stop signal"
}

func wrapper() {
	work()
	runForever()
}

// ctxLit closes over a context: the select ties its lifetime.
func ctxLit(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				work()
			}
		}
	}()
}

// ctxParam passes the context as an argument.
func ctxParam(ctx context.Context) {
	go runLoop(ctx)
}

func runLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
			work()
		}
	}
}

// stopChan receives from a struct{} channel.
func stopChan(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				work()
			}
		}
	}()
}

// wgArg hands the spawned body a WaitGroup pointer: the caller joins it.
func wgArg(wg *sync.WaitGroup) {
	go drain(wg)
}

func drain(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		work()
	}
}

// bounded goroutines that terminate on their own are not leaks.
func bounded() {
	go work()
	go func() {
		for i := 0; i < 3; i++ {
			work()
		}
	}()
}
