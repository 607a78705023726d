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
	"math/bits"

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
}

// Components labels the connected components of the subgraph of p
// induced by the enabled links (nil include = all links), walking the
// include set's bits in ascending link ID. It makes two allocations:
// the Partition and one slice that backs Comp and the union-find
// forest.
func Components(p *topo.POCNetwork, include *linkset.Set) *Partition {
	pt := Label(p, include, make([]int, 2*len(p.Routers)))
	return &pt
}

// Label is Components into caller scratch: buf must hold at least two
// ints per router, and Label allocates nothing. The labelling's Comp is
// buf's first len(p.Routers) ints, the union-find forest the next as
// many, so it is valid until the caller writes buf again.
func Label(p *topo.POCNetwork, include *linkset.Set, buf []int) Partition {
	n := len(p.Routers)
	pt := Partition{Comp: buf[:n:n]}
	parent := buf[n : 2*n]
	for i := range parent {
		parent[i] = i
	}
	if include == nil {
		for i := range p.Links {
			union(parent, p.Links[i].A, p.Links[i].B)
		}
	} else {
	words:
		for wi, w := range include.Words() {
			for ; w != 0; w &= w - 1 {
				id := wi<<6 | bits.TrailingZeros64(w)
				if id >= len(p.Links) {
					break words
				}
				union(parent, p.Links[id].A, p.Links[id].B)
			}
		}
	}
	for i := range pt.Comp {
		// A root is the smallest member of its component and we scan
		// routers ascending, so a root opens the next label and every
		// other router copies its root's, already assigned.
		if r := find(parent, i); r == i {
			pt.Comp[i] = pt.NumComp
			pt.NumComp++
		} else {
			pt.Comp[i] = pt.Comp[r]
		}
	}
	return pt
}

// find returns x's root, halving the path behind it. Every parent is
// smaller than its child, so the root is the component's smallest
// member.
func find(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// union joins a's and b's trees under the smaller root index, which
// keeps every root the smallest member of its set and makes labeling
// independent of link order.
func union(parent []int, a, b int) {
	ra, rb := find(parent, a), find(parent, b)
	if rb < ra {
		ra, rb = rb, ra
	}
	parent[rb] = ra
}
