// Package allowlab exercises the //lint:allow directive grammar: a
// directive without an analyzer name, without a reason, or naming no
// analyzer is itself a diagnostic (exceptions must be attributable and
// must exempt something), while a well-formed directive suppresses
// exactly its analyzer on its line.
package allowlab

//lint:allow
// the bare directive above is missing its analyzer name

//lint:allow floatorder
// the directive above names an analyzer but gives no reason

//lint:allow deepfold merged into floatorder; this exemption is stale
// the directive above names an analyzer that no longer exists

func total(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v //lint:allow floatorder demo tolerance recorded here
	}
	return t
}
