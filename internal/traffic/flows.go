package traffic

import (
	"fmt"
	"math/rand"
)

// FlowSample is one endpoint-pair demand drawn from a matrix — the
// unit of the fabric's flow-level workloads. Src and Dst index
// attachment points (matrix rows/columns).
type FlowSample struct {
	Src, Dst int
	Gbps     float64
}

// SampleFlows decomposes a demand matrix into n individual aggregate
// flows: (src,dst) pairs are drawn proportionally to their matrix
// entry, and each flow's rate jitters uniformly in [0.5,1.5)× around
// totalGbps/n, so the n flows together offer ≈ totalGbps spread the
// way the matrix spreads aggregate demand. The paper's TM is an
// upper-bound envelope over many individual flows; this is the
// inverse operation, used to put realistic million-flow populations
// on the fabric. Sampling is seeded and fully deterministic.
func SampleFlows(m *Matrix, n int, totalGbps float64, seed int64) []FlowSample {
	if n <= 0 {
		panic(fmt.Sprintf("traffic: sample count %d", n))
	}
	if totalGbps <= 0 {
		panic(fmt.Sprintf("traffic: sample total %v Gbps", totalGbps))
	}
	// Cumulative weight over non-zero cells in row-major order.
	type cell struct{ src, dst int }
	var cells []cell
	var cum []float64
	sum := 0.0
	m.Demands(func(src, dst int, gbps float64) {
		sum += gbps
		cells = append(cells, cell{src, dst})
		cum = append(cum, sum)
	})
	if len(cells) == 0 {
		panic("traffic: sampling an empty matrix")
	}
	ix := newCumIndex(cum)
	rng := rand.New(rand.NewSource(seed))
	base := totalGbps / float64(n)
	out := make([]FlowSample, n)
	for i := range out {
		c := cells[ix.search(rng.Float64()*sum)]
		out[i] = FlowSample{Src: c.src, Dst: c.dst, Gbps: base * (0.5 + rng.Float64())}
	}
	return out
}

// cumIndex is a guide table over an ascending cumulative-weight slice
// (Chen and Asau's indexed search): one bucket per entry, each holding
// the first index whose weight reaches the bucket's lower edge, so a
// draw jumps to its bucket and walks O(1) entries on average instead
// of binary-searching.
type cumIndex struct {
	cum   []float64
	guide []int32
	scale float64 // buckets per unit of weight
}

func newCumIndex(cum []float64) cumIndex {
	n := len(cum)
	ix := cumIndex{cum: cum, guide: make([]int32, n), scale: float64(n) / cum[n-1]}
	j := 0
	for k := range ix.guide {
		for j < n-1 && cum[j]*ix.scale < float64(k) {
			j++
		}
		ix.guide[k] = int32(j)
	}
	return ix
}

// search returns exactly sort.SearchFloat64s(cum, x) for 0 ≤ x ≤ the
// last weight: the smallest i with cum[i] >= x. The guide only picks
// where the walk starts — stepping back over entries that still reach
// x and forward over entries below it makes the answer independent of
// how the bucket index rounds.
func (ix *cumIndex) search(x float64) int {
	k := len(ix.guide) - 1
	if b := x * ix.scale; b < float64(k) { // false for NaN and +Inf too
		k = int(b)
	}
	j := int(ix.guide[k])
	for j > 0 && ix.cum[j-1] >= x {
		j--
	}
	for ix.cum[j] < x {
		j++
	}
	return j
}
