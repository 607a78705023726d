// Package graph provides the directed multigraph model and the routing
// algorithms shared by the provisioning engine (winner determination for
// the bandwidth auction) and the fabric simulator.
//
// The graph is deliberately small and value-oriented: nodes are dense
// integer IDs, edges are stored in a flat slice and referenced by index,
// and adjacency is a slice of edge indices per node. It is append-only:
// edges are added, never removed or switched off. Which edges a search
// may use is the caller's business, expressed as a Mask of caller-owned
// bitsets — the one way to select edges. Two reusable engines,
// TreeRouter (single source; the whole tree, or one that stops once its
// targets settle) and PointRouter (one pair, early exit), run Dijkstra
// over a CSR view of the graph (csr.go), allocation-free and
// closure-free in steady state — it matters
// because the auction's winner-determination step runs feasibility
// checks across thousands of candidate link subsets. On a graph of at
// most 64 nodes the queue is a bitset scanned for a unique minimum
// (frontier.go), which pops exactly what the binary heap would; a tie
// sends the search back to the heap. There a node's edges are scanned
// cheapest first (csr.go), so a point search leaves a node at its first
// edge past the destination's label.
package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node in a Graph. IDs are dense: a graph with N
// nodes uses IDs 0..N-1.
type NodeID int

// EdgeID identifies an edge by its index in the graph's edge slice.
type EdgeID int

// Undefined is returned by lookups that find no node or edge.
const Undefined = -1

// Edge is a directed edge with a routing cost and a capacity.
//
// The provisioning engine treats Cost as the routing metric (typically
// link latency or distance) and Capacity as the leased bandwidth in
// Gbps.
type Edge struct {
	From     NodeID
	To       NodeID
	Cost     float64
	Capacity float64
}

// Graph is a directed multigraph over a fixed set of nodes; build one
// with New.
type Graph struct {
	edges []Edge
	adj   [][]EdgeID // outgoing edge indices per node
	links []int32    // per-edge link label (SetLinks); nil = the edge's own ID

	// lay is the CSR form the shortest-path kernel walks, built on
	// first use and dropped whenever an edge is added or relabeled.
	lay atomic.Pointer[layout]
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]EdgeID, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge appends a directed edge and returns its ID. Cost must be
// non-negative, which NaN is not: the searches rely on ordered costs
// ≥ 0. A negative capacity is treated as unbounded.
func (g *Graph) AddEdge(from, to NodeID, cost, capacity float64) EdgeID {
	if from < 0 || int(from) >= len(g.adj) || to < 0 || int(to) >= len(g.adj) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range for %d nodes", from, to, len(g.adj)))
	}
	if !(cost >= 0) {
		panic(fmt.Sprintf("graph: edge cost %v is negative or NaN", cost))
	}
	if capacity < 0 {
		capacity = math.Inf(1)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{From: from, To: to, Cost: cost, Capacity: capacity})
	g.adj[from] = append(g.adj[from], id)
	g.lay.Store(nil)
	return id
}

// AddBiEdge adds a pair of directed edges (one per direction) with the
// same cost and capacity and returns both IDs.
func (g *Graph) AddBiEdge(a, b NodeID, cost, capacity float64) (EdgeID, EdgeID) {
	return g.AddEdge(a, b, cost, capacity), g.AddEdge(b, a, cost, capacity)
}

// Path is a sequence of edge IDs forming a walk from a source to a
// destination, together with its total routing cost.
type Path struct {
	Edges []EdgeID
	Cost  float64
}

// Nodes returns the node sequence of the path in g, starting at the
// first edge's From node. An empty path returns nil.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Edges) == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, len(p.Edges)+1)
	nodes = append(nodes, g.edges[p.Edges[0]].From)
	for _, id := range p.Edges {
		nodes = append(nodes, g.edges[id].To)
	}
	return nodes
}

// MinCapacity returns the smallest capacity along the path, or +Inf for
// an empty path.
func (p Path) MinCapacity(g *Graph) float64 {
	min := math.Inf(1)
	for _, id := range p.Edges {
		if c := g.edges[id].Capacity; c < min {
			min = c
		}
	}
	return min
}
