package partition

import (
	"reflect"
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
)

// net builds a bare POCNetwork with n routers and the given undirected
// links (router index pairs). Capacities and distances are irrelevant
// to partitioning.
func net(n int, pairs ...[2]int) *topo.POCNetwork {
	p := &topo.POCNetwork{Routers: make([]int, n)}
	for i := range p.Routers {
		p.Routers[i] = i
	}
	for i, pr := range pairs {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: i, BP: 0, A: pr[0], B: pr[1], Capacity: 10, DistanceKm: 100,
		})
	}
	return p
}

func TestComponentsLabels(t *testing.T) {
	// Two triangles {0,1,2} and {3,4,5}, one isolated router 6.
	p := net(7, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0},
		[2]int{3, 4}, [2]int{4, 5}, [2]int{5, 3})
	pt := Components(p, nil)
	if pt.NumComp != 3 {
		t.Fatalf("NumComp = %d, want 3", pt.NumComp)
	}
	want := []int{0, 0, 0, 1, 1, 1, 2}
	if !reflect.DeepEqual(pt.Comp, want) {
		t.Fatalf("Comp = %v, want %v", pt.Comp, want)
	}
	if !reflect.DeepEqual(pt.Size, []int{3, 3, 1}) {
		t.Fatalf("Size = %v", pt.Size)
	}
}

func TestComponentsRespectsInclude(t *testing.T) {
	// A path 0-1-2-3; disabling the middle link splits it.
	p := net(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	s := linkset.All(len(p.Links))
	s.Remove(1)
	pt := Components(p, s)
	if pt.NumComp != 2 {
		t.Fatalf("NumComp = %d, want 2", pt.NumComp)
	}
	if !reflect.DeepEqual(pt.Comp, []int{0, 0, 1, 1}) {
		t.Fatalf("Comp = %v", pt.Comp)
	}
	// The connected labeling differs from the split one.
	if whole := Components(p, nil); reflect.DeepEqual(whole.Comp, pt.Comp) {
		t.Fatalf("connected labeling %v equals the split one", whole.Comp)
	}
	// And the same input labels the same way again.
	if again := Components(p, s); !reflect.DeepEqual(again.Comp, pt.Comp) {
		t.Fatalf("relabeling gave %v, first run %v", again.Comp, pt.Comp)
	}
}

func TestComponentsLabelOrderIsBySmallestMember(t *testing.T) {
	// Component containing router 0 must get label 0 even when its
	// links appear last.
	p := net(4, [2]int{2, 3}, [2]int{0, 1})
	pt := Components(p, nil)
	if !reflect.DeepEqual(pt.Comp, []int{0, 0, 1, 1}) {
		t.Fatalf("Comp = %v, want [0 0 1 1]", pt.Comp)
	}
}
