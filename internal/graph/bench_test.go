package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// benchGraph is a zoo-like routing graph: n routers, links bidirectional
// links between random router pairs with real-valued (distance-like)
// costs, each link labeling its two edges.
func benchGraph(n, links int) *Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	g := New(n)
	var labels []int32
	for l := 0; l < links; l++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		g.AddBiEdge(NodeID(a), NodeID(b), 50+3000*rng.Float64(), 1)
		labels = append(labels, int32(l), int32(l))
	}
	g.SetLinks(labels)
	return g
}

// benchMask builds one of the mask kinds the benchmarks run over: "nil";
// "open", an Open set with a quarter of the positions open, about what
// an auction's candidate subsets leave of the full arena graph; "resid", a
// Resid threshold that turns away about a tenth of the links plus an
// Avoid set of a fiftieth.
func benchMask(g *Graph, kind string, links int) *Mask {
	rng := rand.New(rand.NewSource(7))
	switch kind {
	case "open":
		m := &Mask{Open: slices.Clone(g.layout().all)}
		for id := 0; id < g.NumEdges(); id++ {
			if rng.Intn(4) != 0 { // by edge, so the set survives a change of position order
				p := uint(g.Pos(EdgeID(id)))
				m.Open[p>>6] &^= 1 << (p & 63)
			}
		}
		return m
	case "resid":
		m := &Mask{Avoid: make([]uint64, (links+63)/64), Resid: make([]float64, links), Want: 1}
		for l := range m.Resid {
			m.Resid[l] = 10 * rng.Float64()
			if rng.Intn(50) == 0 {
				m.Avoid[l>>6] |= 1 << (uint(l) & 63)
			}
		}
		return m
	}
	return nil
}

// BenchmarkSearch times the kernel's searches on zoo-sized graphs — 27
// and 36 routers, which the frontier engine serves, and 200, which only
// the heap does — over each mask kind. One op is 64 point searches, 64
// certified ones (over the masks with no Open set, which a certificate
// can speak for), 16 trees, or 16 demands split over up to four paths,
// each split closing one link of the last path as saturation would:
// "resume" resumes the last split's search, "fresh" searches again from
// scratch. A "tree-to-k" tree stops once k random destinations have
// settled.
func BenchmarkSearch(b *testing.B) {
	for _, size := range []struct{ n, links int }{{27, 300}, {36, 653}, {200, 800}} {
		g := benchGraph(size.n, size.links)
		rng := rand.New(rand.NewSource(1))
		pairs := make([][2]NodeID, 64)
		for i := range pairs {
			pairs[i] = [2]NodeID{NodeID(rng.Intn(size.n)), NodeID(rng.Intn(size.n))}
		}
		for _, kind := range []string{"nil", "open", "resid"} {
			m := benchMask(g, kind, size.links)
			b.Run(fmt.Sprintf("point/%s/n%d", kind, size.n), func(b *testing.B) {
				pr := NewPointRouter(g)
				var buf []EdgeID
				for i := 0; i < b.N; i++ {
					for _, p := range pairs {
						buf, _ = pr.PathInto(buf[:0], p[0], p[1], m)
					}
				}
			})
			if m == nil || m.Open == nil {
				b.Run(fmt.Sprintf("certified/%s/n%d", kind, size.n), func(b *testing.B) {
					pr := NewPointRouter(g)
					cert := Cert{Rej: make([]uint64, (size.links+63)/64)}
					var buf []EdgeID
					for i := 0; i < b.N; i++ {
						for _, p := range pairs {
							buf, _, _ = pr.CertifiedPathInto(buf[:0], p[0], p[1], m, &cert)
						}
					}
				})
			}
			b.Run(fmt.Sprintf("tree/%s/n%d", kind, size.n), func(b *testing.B) {
				tr := NewTreeRouter(g)
				for i := 0; i < b.N; i++ {
					for _, p := range pairs[:16] {
						tr.Tree(p[0], m)
					}
				}
			})
			for _, k := range []int{1, 4} {
				b.Run(fmt.Sprintf("tree-to-%d/%s/n%d", k, kind, size.n), func(b *testing.B) {
					tr := NewTreeRouter(g)
					targets := make([]NodeID, k)
					for i := 0; i < b.N; i++ {
						for j, p := range pairs[:16] {
							for t := range targets {
								targets[t] = pairs[(j+16*t+16)%len(pairs)][1]
							}
							tr.Tree(p[0], m, targets...)
						}
					}
				})
			}
			if m == nil {
				continue
			}
			for _, name := range []string{"resume", "fresh"} {
				b.Run(fmt.Sprintf("%s/%s/n%d", name, kind, size.n), func(b *testing.B) {
					benchSplits(b, g, m, pairs[:16], name == "resume")
				})
			}
		}
	}
}

// benchSplits routes each pair over up to four paths, closing a random
// link of each path before the next split.
func benchSplits(b *testing.B, g *Graph, base *Mask, pairs [][2]NodeID, resume bool) {
	rng := rand.New(rand.NewSource(3))
	pr := NewPointRouter(g)
	lay := g.layout()
	m := &Mask{Open: slices.Clone(base.Open), Avoid: base.Avoid, Resid: slices.Clone(base.Resid), Want: base.Want}
	var buf []EdgeID
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			copy(m.Open, base.Open)
			copy(m.Resid, base.Resid)
			var changed uint64
			for split := 0; split < 4; split++ {
				if split > 0 && resume {
					buf, _ = pr.ResumeInto(buf[:0], p[0], p[1], m, changed)
				} else {
					buf, _ = pr.PathInto(buf[:0], p[0], p[1], m)
				}
				if len(buf) == 0 {
					break // unreachable, or src == dst
				}
				sat := buf[rng.Intn(len(buf))]
				e := g.edges[sat]
				if m.Resid != nil {
					m.Resid[lay.link[lay.pos[sat]]] = 0
				} else {
					for _, id := range []EdgeID{sat, sat ^ 1} { // AddBiEdge pairs 2k, 2k+1
						q := uint(lay.pos[id])
						m.Open[q>>6] &^= 1 << (q & 63)
					}
				}
				changed = 1<<uint(e.From) | 1<<uint(e.To)
			}
		}
	}
}
