// Package lockorder implements the centurylint analyzer that detects
// potential deadlocks from inconsistent lock-acquisition order.
//
// A lock-order inversion is the concurrency bug a century-scale node
// cannot afford: it passes every test that doesn't hit the exact
// interleaving, then wedges the process in year 3 with both goroutines
// asleep and no operator attached. The analyzer builds the
// whole-program lock-acquisition graph from the dataflow summaries —
// nodes are lock *families* (canonical roots like
// "internal/cloud.(guardShard).mu", see dataflow.ExprRoot), and there
// is an edge A→B wherever some function acquires B while holding A,
// directly or through any statically-resolved callee. Any cycle in
// that graph means two call paths can take the same pair of locks in
// opposite orders; the diagnostic prints a complete witness: the cycle
// of roots and, per edge, the function chain that takes it.
//
// Two idioms are recognized as safe and do not produce edges:
//
//   - Index-ordered accumulation: a loop that grabs every instance of
//     one family in slice/index order (the guard-shard barrier in
//     FoldRollups, snapshot's hold-all) is a total order over the
//     family, not a race to deadlock. A loop that accumulates with NO
//     fixed order (ranging a map) is flagged as a self-cycle.
//   - Same-family reacquisition through a call (A held, callee
//     acquires A) is skipped: across instances it is usually two
//     different objects, and the summary cannot tell. Conservative in
//     the no-false-positive direction, like dynamic dispatch.
//
// Intentional orderings the graph cannot see justify themselves with
// `//lint:lockorder <reason>` at the reported edge.
package lockorder

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"centuryscale/internal/lint/analysis"
	"centuryscale/internal/lint/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Directive: "lockorder",
	Doc: "build the whole-program lock-acquisition graph from the call summaries " +
		"and report any cycle — two paths taking the same locks in opposite order " +
		"— as a potential deadlock, with the full acquisition path; index-ordered " +
		"loop accumulation (the guard-shard barrier idiom) is a safe hierarchy",
	Run: run,
}

// An edge is one observed "to acquired while from held", with enough
// witness context to print the acquisition path.
type edge struct {
	from, to string
	// fn is the function whose body witnesses the edge.
	fn string
	// via is the callee that performs the acquisition when the edge
	// comes from a call under lock ("" for a direct acquisition).
	via string
	// pos locates the witness: the Lock call or the call expression.
	pos token.Pos
	// looped marks a self-edge from unordered loop accumulation.
	looped bool
}

func run(pass *analysis.Pass) error {
	index := pass.Summaries

	edges := buildGraph(index)
	adj := make(map[string][]string)
	byPair := make(map[[2]string]edge)
	for _, e := range edges {
		key := [2]string{e.from, e.to}
		if _, seen := byPair[key]; !seen {
			byPair[key] = e
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}

	for _, cycle := range cycles(adj) {
		reportCycle(pass, index, byPair, cycle)
	}
	return nil
}

// buildGraph extracts every acquisition-order edge from the index, in
// deterministic order (sorted function names, source order within a
// body) so the first witness for each pair is stable across runs.
func buildGraph(index *dataflow.Index) []edge {
	var edges []edge
	for _, name := range index.Names() {
		s := index.Lookup(name)
		for _, a := range s.Acquires {
			for _, h := range a.Held {
				if h != a.Root {
					edges = append(edges, edge{from: h, to: a.Root, fn: name, pos: a.Pos})
				}
			}
			if a.Looped && !a.IndexOrdered {
				edges = append(edges, edge{from: a.Root, to: a.Root, fn: name, pos: a.Pos, looped: true})
			}
		}
		for _, cu := range s.CallsUnder {
			for _, l := range index.TransitiveLocks(cu.Callee) {
				for _, h := range cu.Held {
					// Same-family reacquisition through a call is
					// instance-ambiguous; skip (package doc).
					if h != l {
						edges = append(edges, edge{from: h, to: l, fn: name, via: cu.Callee, pos: cu.Pos})
					}
				}
			}
		}
	}
	return edges
}

// cycles returns one representative cycle per strongly connected
// component that contains one: the shortest cycle through the
// component's smallest root, as a node sequence whose first and last
// element are equal. Deterministic: SCCs found over sorted nodes,
// successors expanded sorted.
func cycles(adj map[string][]string) [][]string {
	nodes := make([]string, 0, len(adj))
	seenNode := make(map[string]bool)
	for from, tos := range adj {
		if !seenNode[from] {
			seenNode[from] = true
			nodes = append(nodes, from)
		}
		for _, to := range tos {
			if !seenNode[to] {
				seenNode[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	sccs := tarjan(nodes, adj)
	var out [][]string
	for _, scc := range sccs {
		sort.Strings(scc)
		root := scc[0]
		if len(scc) == 1 {
			if !hasEdge(adj, root, root) {
				continue
			}
			out = append(out, []string{root, root})
			continue
		}
		if c := shortestCycle(adj, scc, root); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func hasEdge(adj map[string][]string, from, to string) bool {
	for _, t := range adj[from] {
		if t == to {
			return true
		}
	}
	return false
}

// tarjan computes strongly connected components, iteratively.
func tarjan(nodes []string, adj map[string][]string) [][]string {
	type frame struct {
		node string
		succ int
	}
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	for _, start := range nodes {
		if _, visited := index[start]; visited {
			continue
		}
		frames := []frame{{node: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.succ < len(adj[f.node]) {
				w := adj[f.node][f.succ]
				f.succ++
				if _, visited := index[w]; !visited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// f.node is done: pop, propagate lowlink, emit SCC at root.
			if low[f.node] == index[f.node] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.node {
						break
					}
				}
				if len(scc) > 1 || hasEdge(adj, f.node, f.node) {
					sccs = append(sccs, scc)
				}
			}
			done := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[done] < low[parent.node] {
					low[parent.node] = low[done]
				}
			}
		}
	}
	return sccs
}

// shortestCycle BFSes within one SCC from root back to root.
func shortestCycle(adj map[string][]string, scc []string, root string) []string {
	inSCC := make(map[string]bool, len(scc))
	for _, n := range scc {
		inSCC[n] = true
	}
	type node struct {
		name string
		path []string
	}
	seen := map[string]bool{}
	queue := []node{{root, []string{root}}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, succ := range adj[n.name] {
			if succ == root && len(n.path) > 1 {
				return append(n.path, root)
			}
			if !inSCC[succ] || seen[succ] {
				continue
			}
			seen[succ] = true
			queue = append(queue, node{succ, append(append([]string(nil), n.path...), succ)})
		}
	}
	// Two-node cycles exit above; root→root within a larger SCC needs
	// the 2-hop minimum relaxed.
	for _, succ := range adj[root] {
		if succ == root {
			return []string{root, root}
		}
	}
	return nil
}

// reportCycle prints the full acquisition path for one cycle, anchored
// at the first edge whose witness position lies in this pass's files —
// so a multi-package cycle is reported exactly once, in the package
// that takes the first edge.
func reportCycle(pass *analysis.Pass, index *dataflow.Index, byPair map[[2]string]edge, cycle []string) {
	first := byPair[[2]string{cycle[0], cycle[1]}]
	if !posInPass(pass, first.pos) {
		return
	}

	if len(cycle) == 2 && cycle[0] == cycle[1] && first.looped {
		pass.Reportf(first.pos,
			"lock-order cycle: %s accumulated across loop iterations in %s with no fixed order; two goroutines grabbing instances in opposite order deadlock — iterate the owning slice in index order (the guard-shard barrier idiom) or annotate //lint:lockorder <reason>",
			cycle[0], first.fn)
		return
	}

	var steps []string
	for i := 0; i+1 < len(cycle); i++ {
		e := byPair[[2]string{cycle[i], cycle[i+1]}]
		steps = append(steps, describeEdge(index, e))
	}
	pass.Reportf(first.pos,
		"lock-order cycle: %s; two goroutines taking these paths concurrently deadlock — acquire in one global order or annotate //lint:lockorder <reason>",
		strings.Join(steps, "; then "))
}

// describeEdge renders one acquisition step with its function chain.
func describeEdge(index *dataflow.Index, e edge) string {
	if e.via == "" {
		return fmt.Sprintf("%s acquires %s while holding %s", e.fn, e.to, e.from)
	}
	chain := index.AcquireChain(e.via, e.to)
	if chain == nil {
		chain = []string{e.via}
	}
	return fmt.Sprintf("%s holds %s and calls %s, which acquires %s",
		e.fn, e.from, strings.Join(chain, " -> "), e.to)
}

func posInPass(pass *analysis.Pass, pos token.Pos) bool {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return true
		}
	}
	return false
}
