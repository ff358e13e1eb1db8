// Fixture for the whole suite over a daemon package: one spawn that
// loops forever and observes no stop signal, but is joined. It breaks
// one rule, so the suite reports it once — as untied, never again as
// a forever-loop leak.
package gateway

func compute() int { return 1 }

type pump struct {
	done chan struct{}
}

func (p *pump) start() {
	p.done = make(chan struct{})
	go p.run() // want "not tied to shutdown"
}

func (p *pump) run() {
	defer close(p.done)
	for {
		compute()
	}
}

func (p *pump) wait() { <-p.done }
