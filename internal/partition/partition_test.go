package partition

import (
	"math/rand"
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
	size := make([]int, pt.NumComp)
	for _, k := range pt.Comp {
		size[k]++
	}
	if !reflect.DeepEqual(size, []int{3, 3, 1}) {
		t.Fatalf("component sizes = %v", size)
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

// TestComponentsMatchesSearch compares the labelling with a
// breadth-first search from each unlabelled router in ascending order,
// on random multigraphs and include sets — some of which name IDs past
// the last link, which must be ignored.
func TestComponentsMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var pairs [][2]int
		for i := rng.Intn(2 * n); i > 0; i-- {
			pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		p := net(n, pairs...)
		var include *linkset.Set
		if trial%4 != 0 {
			include = linkset.New(len(pairs) + 70)
			for id := 0; id < len(pairs)+70; id++ {
				if rng.Intn(3) != 0 {
					include.Add(id)
				}
			}
		}
		adj := make([][]int, n)
		for _, l := range p.Links {
			if include == nil || include.Contains(l.ID) {
				adj[l.A] = append(adj[l.A], l.B)
				adj[l.B] = append(adj[l.B], l.A)
			}
		}
		want := make([]int, n)
		for i := range want {
			want[i] = -1
		}
		k := 0
		for s := range want {
			if want[s] >= 0 {
				continue
			}
			want[s] = k
			for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
				for _, v := range adj[queue[0]] {
					if want[v] < 0 {
						want[v] = k
						queue = append(queue, v)
					}
				}
			}
			k++
		}
		pt := Components(p, include)
		if pt.NumComp != k || !reflect.DeepEqual(pt.Comp, want) {
			t.Fatalf("trial %d: Comp = %v (%d components), want %v (%d)", trial, pt.Comp, pt.NumComp, want, k)
		}
	}
}

// TestLabelMatchesComponents: labelling into one reused buffer, left
// dirty by the trial before, gives Components' labelling on random
// multigraphs and include sets.
func TestLabelMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	buf := make([]int, 2*40)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var pairs [][2]int
		for i := rng.Intn(2 * n); i > 0; i-- {
			pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		p := net(n, pairs...)
		var include *linkset.Set
		if trial%4 != 0 {
			include = linkset.New(len(pairs))
			for id := range pairs {
				if rng.Intn(3) != 0 {
					include.Add(id)
				}
			}
		}
		for i := range buf {
			buf[i] = rng.Intn(n) // the last trial's labels, or any garbage
		}
		got, want := Label(p, include, buf), Components(p, include)
		if got.NumComp != want.NumComp || !reflect.DeepEqual(got.Comp, want.Comp) {
			t.Fatalf("trial %d: Label = %v (%d components), Components = %v (%d)", trial, got.Comp, got.NumComp, want.Comp, want.NumComp)
		}
	}
}
