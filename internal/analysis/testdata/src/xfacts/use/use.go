// Package use calls xfacts/helper inside unordered contexts: every
// diagnostic here requires the callee's fold summary to have crossed
// the package boundary via facts.
package use

import "xfacts/helper"

// Positive: imported FoldRecv callee, receiver outside the loop.
func SumByKey(m map[string]float64) float64 {
	var t helper.Totals
	for _, v := range m {
		t.Add(v) // want "Totals\\.Add folds floats into t, declared outside, inside range over map"
	}
	return t.Sum
}

// Positive: imported FoldParams callee, argument outside the loop.
func SumPtr(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		helper.AddTo(&total, v) // want "AddTo folds floats into argument &total, declared outside, inside range over map"
	}
	return total
}

// The fold-free imported callee is clean; the float append it feeds is
// not: the slice's element order follows the map.
func ScaleAll(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, helper.Scale(v, 2)) // want "element order follows map iteration"
	}
	return out
}

// Negative: imported FoldRecv callee with a loop-local receiver.
func MaxBucket(m map[string][]float64) float64 {
	best := 0.0
	for _, vs := range m {
		var t helper.Totals
		for _, v := range vs {
			t.Add(v)
		}
		if t.Sum > best {
			best = t.Sum
		}
	}
	return best
}
