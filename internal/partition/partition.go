// Package partition computes the connected components of the POC
// router graph induced by an enabled link set.
//
// The winner determination's regional decomposition (DESIGN.md §15)
// rests on an exactness condition: when the enabled subgraph splits
// into components and every demand pair is intra-component, routing
// each component alone is byte-identical to routing them together —
// Dijkstra never relaxes across a gap, utilization never aggregates
// across components, and the ejection budget is per-Route. This
// package supplies the certificate's input: the component labeling.
//
// Everything here is deterministic: labels are dense ranks of each
// component's smallest router index, and all link iteration is in
// ascending link-ID order, so equal inputs yield equal partitions on
// every run and at every worker count.
package partition

import (
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
)

// Partition is a component labeling of a POCNetwork's routers under
// some enabled link set. Labels are dense in [0, NumComp) and ordered
// by each component's smallest router index — component 0 contains
// router 0, the next label belongs to the smallest router not in an
// earlier component, and so on. Isolated routers form singleton
// components (the decomposition skips them as demandless).
type Partition struct {
	// Comp maps router index -> component label.
	Comp []int
	// NumComp is the number of components.
	NumComp int
	// Size[k] is the number of routers in component k.
	Size []int
}

// Components labels the connected components of the subgraph of p
// induced by the enabled links (nil include = all links).
func Components(p *topo.POCNetwork, include *linkset.Set) *Partition {
	n := len(p.Routers)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, l := range p.Links {
		if include != nil && !include.Contains(l.ID) {
			continue
		}
		ra, rb := find(l.A), find(l.B)
		if ra != rb {
			// Union by smaller root index: keeps every root the smallest
			// member of its set, which makes labeling order-free.
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	pt := &Partition{Comp: make([]int, n)}
	label := make(map[int]int, 8)
	for i := 0; i < n; i++ {
		r := find(i)
		k, ok := label[r]
		if !ok {
			// Roots are the smallest member of their component, and we
			// scan routers ascending, so labels come out dense and ordered
			// by smallest member.
			k = pt.NumComp
			label[r] = k
			pt.NumComp++
			pt.Size = append(pt.Size, 0)
		}
		pt.Comp[i] = k
		pt.Size[k]++
	}
	return pt
}
