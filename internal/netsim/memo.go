package netsim

import "github.com/public-option/poc/internal/graph"

// pathMemo is the fabric's certified path memo: per ordered router
// pair, the answer of the last point search for that pair — the path
// as logical links, and its cost — together with the search's
// graph.Cert. A search for the pair over a mask the certificate holds
// for would ask the mask the same questions and get the same answers,
// so it would return that path and cost bit for bit; the memo returns
// them without searching.
//
// Nothing invalidates an entry. The fabric's graph, costs and selected
// set are fixed by New, and every lookup re-proves the certificate
// against the current failed set and residuals, so failures, repairs,
// stops and reroutes need no hooks. A certificate that does not hold
// only costs the search it would have run anyway, whose answer and
// certificate then replace the entry.
//
// Storage is fixed-size windows in four slices, allocated on the first
// search (never by New): a simple path has at most routers−1 links,
// and a certificate is two bitsets over the network's links.
type pathMemo struct {
	routers int
	hops    int // path window per pair
	words   int // words per certificate bitset
	plen    []int32
	cost    []float64
	links   []int32
	certs   []uint64
}

// memoSearch answers one point search from router a to router b ≠ a
// over the links usable at want: from the memo when the pair's
// certificate holds for the current mask, otherwise by a certified
// search that replaces the pair's entry. The returned links are the
// memo's window: valid until the next search for the pair.
func (f *Fabric) memoSearch(a, b int, want float64) ([]int32, float64) {
	m := &f.memo
	if m.plen == nil {
		n := f.g.NumNodes()
		m.routers, m.hops, m.words = n, max(n-1, 0), (len(f.net.Links)+63)/64
		m.plen = make([]int32, n*n)
		for i := range m.plen {
			m.plen[i] = -1 // never searched
		}
		m.cost = make([]float64, n*n)
		m.links = make([]int32, n*n*m.hops)
		m.certs = make([]uint64, 2*n*n*m.words)
	}
	i := a*m.routers + b
	c, win := m.entry(i)
	mask := f.usable(want)
	if n := m.plen[i]; n >= 0 && c.Holds(mask) {
		return win[:n], m.cost[i]
	}
	edges, cost := f.pr.CertifiedPathInto(f.edgeBuf[:0], graph.NodeID(a), graph.NodeID(b), mask, &c)
	f.edgeBuf = edges
	for k, eid := range edges {
		win[k] = f.linkFor[eid]
	}
	m.plen[i], m.cost[i] = int32(len(edges)), cost
	return win[:len(edges)], cost
}

// entry returns pair i's certificate and path window, both views of
// the memo's storage.
func (m *pathMemo) entry(i int) (graph.Cert, []int32) {
	w := m.certs[2*i*m.words : 2*(i+1)*m.words]
	return graph.Cert{Rel: w[:m.words], Rej: w[m.words:]}, m.links[i*m.hops : (i+1)*m.hops]
}
