package netsim

import "github.com/public-option/poc/internal/graph"

// pathMemo is the fabric's certified path memo: per ordered router
// pair, the answer of the last point search for that pair — the path
// as logical links, and its cost — together with the search's
// graph.Cert, the links it asked about and refused. A search for the
// pair over a mask that still refuses those links and still admits the
// path's own would return that path and cost bit for bit; the memo
// returns them without searching.
//
// Nothing invalidates an entry. The fabric's graph, costs and selected
// set are fixed by New, and every lookup re-proves the certificate
// against the current failed set and residuals, so failures, repairs,
// stops and reroutes need no hooks. A certificate that does not hold
// only costs the search it would have run anyway, whose answer and
// certificate then replace the entry. A search that met a tie proves
// nothing for another mask, so it leaves the pair without an entry.
//
// Storage is fixed-size windows in four slices, allocated on the first
// search (never by New): a simple path has at most routers−1 links,
// and a certificate is one bitset over the network's links.
type pathMemo struct {
	routers int
	hops    int // path window per pair
	words   int // words per certificate bitset
	plen    []int32
	cost    []float64
	links   []int32
	rej     []uint64

	hits, misses uint64 // lookups answered from an entry, and searched
}

// memoSearch answers one point search from router a to router b ≠ a
// over the links usable at want: from the memo when the pair's
// certificate holds for the current mask and path, otherwise by a
// certified search that replaces the pair's entry. The returned links
// are the memo's window: valid until the next search for the pair.
func (f *Fabric) memoSearch(a, b int, want float64) ([]int32, float64) {
	m := &f.memo
	if m.plen == nil {
		n := f.g.NumNodes()
		m.routers, m.hops, m.words = n, max(n-1, 0), (len(f.net.Links)+63)/64
		m.plen = make([]int32, n*n)
		for i := range m.plen {
			m.plen[i] = -1 // no entry
		}
		m.cost = make([]float64, n*n)
		m.links = make([]int32, n*n*m.hops)
		m.rej = make([]uint64, n*n*m.words)
	}
	i := a*m.routers + b
	c, win := m.entry(i)
	mask := f.usable(want)
	if n := m.plen[i]; n >= 0 && c.Holds(mask, win[:n]) {
		m.hits++
		return win[:n], m.cost[i]
	}
	m.misses++
	edges, cost, tied := f.pr.CertifiedPathInto(f.edgeBuf[:0], graph.NodeID(a), graph.NodeID(b), mask, &c)
	f.edgeBuf = edges
	for k, eid := range edges {
		win[k] = f.linkFor[eid]
	}
	m.plen[i], m.cost[i] = int32(len(edges)), cost
	if tied {
		m.plen[i] = -1
	}
	return win[:len(edges)], cost
}

// entry returns pair i's certificate and path window, both views of
// the memo's storage.
func (m *pathMemo) entry(i int) (graph.Cert, []int32) {
	return graph.Cert{Rej: m.rej[i*m.words : (i+1)*m.words]}, m.links[i*m.hops : (i+1)*m.hops]
}
