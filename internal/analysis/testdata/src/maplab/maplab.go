// Package maplab exercises floatorder in map ranges: every map-order
// shape once fixed by hand, the spelled-out accumulator, append and fmt
// output ordering, and the sanctioned idioms that must stay silent.
package maplab

import (
	"fmt"
	"sort"
)

type assignment struct {
	Gbps  float64
	Links []int
}

type flow struct {
	Src       string
	Allocated float64
}

// usedCapacity is the provision.Route revert shape: the accumulation
// hides one slice-range deep inside the map range.
func usedCapacity(asgs map[int]assignment) map[int]float64 {
	used := map[int]float64{}
	for _, a := range asgs {
		for _, l := range a.Links {
			used[l] += a.Gbps // want "ordered by map iteration"
		}
	}
	return used
}

// usageByEndpoint is the netsim.UsageByEndpoint revert shape: the
// write is indexed, but not by the range key.
func usageByEndpoint(flows map[int]flow) map[string]float64 {
	out := map[string]float64{}
	for _, fl := range flows {
		out[fl.Src] += fl.Allocated // want "ordered by map iteration"
	}
	return out
}

// billTotal is the core.BillEpoch revert shape: a straight sum.
func billTotal(usage map[string]float64) float64 {
	total := 0.0
	for _, gb := range usage {
		total += gb // want "ordered by map iteration"
	}
	return total
}

func spelled(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t = t + v // want "ordered by map iteration"
	}
	return t
}

func appendOrder(m map[string]float64) []float64 {
	var xs []float64
	for _, v := range m {
		xs = append(xs, v) // want "element order follows map iteration"
	}
	return xs
}

func printOrder(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "output order follows map iteration"
	}
}

// ---- sanctioned idioms: no diagnostics below ----

func sortedKeys(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // string append: order-insensitive later sort
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k] // slice range, not a map range
	}
	return total
}

func perKeyWrite(src map[string]float64) map[string]float64 {
	dst := map[string]float64{}
	for k, v := range src {
		dst[k] += v // one write per key, never reordered
	}
	return dst
}

func intCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // integer addition is associative
	}
	return n
}

func loopLocal(m map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for k, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v // loop-local accumulator, reset per key
		}
		out[k] = s
	}
	return out
}

func freshSlice(m map[string][]float64) map[string][]float64 {
	out := map[string][]float64{}
	for k, v := range m {
		out[k] = append([]float64(nil), v...) // fresh slice, rebuilt per key
	}
	return out
}

// ---- //lint:allow handling ----

func allowedSameLine(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v //lint:allow floatorder tolerance documented in maplab
	}
	return t
}

func allowedLineAbove(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		//lint:allow floatorder tolerance documented in maplab
		t += v
	}
	return t
}

func wrongAnalyzer(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		//lint:allow journalorder names the wrong analyzer, must not suppress
		t += v // want "ordered by map iteration"
	}
	return t
}
