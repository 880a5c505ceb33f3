// Package cfa implements control- and data-flow analyses over the compiled
// basic-block IR (package compiler): CFG construction, dominator trees
// (the iterative Cooper–Harvey–Kennedy algorithm), natural-loop detection
// with nesting depth, reaching definitions, and liveness.
//
// The paper's schema generator is an LLVM IR pass (§3.1); this package is
// the analysis layer that lets our reproduction work at the same level.
// Package schema uses it to detect loop induction variables from dominators
// and natural loops, to score schema entries by performance
// relevance (loop-nesting-depth weighting, constant and dead variable
// pruning), and to verify schema/DWARF location coverage.
//
// The Graph type is deliberately independent of the compiler so analyses
// can be unit-tested on hand-built CFGs; FuncGraph/AnalyzeFunc adapt a
// compiled function.
package cfa

// Graph is a control-flow graph over basic blocks identified by dense
// indices [0, NumBlocks).
type Graph struct {
	Entry int
	Succs [][]int
	Preds [][]int
}

// NewGraph builds a graph from per-block successor lists, deriving
// predecessor lists. succs may contain nil entries for blocks without
// successors.
func NewGraph(entry int, succs [][]int) *Graph {
	g := &Graph{Entry: entry, Succs: succs, Preds: make([][]int, len(succs))}
	for b, ss := range succs {
		for _, s := range ss {
			g.Preds[s] = append(g.Preds[s], b)
		}
	}
	return g
}

// NumBlocks returns the number of blocks in the graph.
func (g *Graph) NumBlocks() int { return len(g.Succs) }

// Reachable reports, per block, whether it is reachable from the entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, g.NumBlocks())
	if g.NumBlocks() == 0 {
		return seen
	}
	stack := []int{g.Entry}
	seen[g.Entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs[b] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder of a depth-first traversal. Unreachable blocks are absent.
func (g *Graph) ReversePostorder() []int {
	n := g.NumBlocks()
	if n == 0 {
		return nil
	}
	seen := make([]bool, n)
	var post []int
	var dfs func(b int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Succs[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
