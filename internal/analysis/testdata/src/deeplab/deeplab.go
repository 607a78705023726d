package deeplab

// acc folds into its receiver: FoldRecv.
type acc struct{ total float64 }

func (a *acc) add(v float64) { a.total += v }

// global fold: FoldGlobal.
var grand float64

func bumpGrand(v float64) { grand += v }

// pointer-parameter fold: FoldParams [0].
func addTo(dst *float64, v float64) { *dst += v }

// pure folds only into a fresh local — no fold facts, never flagged.
func pure(v float64) float64 {
	t := 0.0
	t += v
	return t
}

// wraps addTo: the fold fact relocates through the call chain.
func accumulate(sum *float64, v float64) { addTo(sum, v) }

// Positive: receiver declared outside the map range.
func foldRecvInMapRange(m map[string]float64) float64 {
	var a acc
	for _, v := range m {
		a.add(v) // want "acc\\.add folds floats into a, declared outside, inside range over map"
	}
	return a.total
}

// Positive: global fold inside a map range.
func foldGlobalInMapRange(m map[string]float64) {
	for _, v := range m {
		bumpGrand(v) // want "bumpGrand folds floats into package-level or captured state inside range over map"
	}
}

// Positive: pointer argument rooted outside the map range — through a
// wrapper, so the fact had to survive the fixpoint.
func foldParamInMapRange(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		accumulate(&total, v) // want "accumulate folds floats into argument &total, declared outside, inside range over map"
	}
	return total
}

// Positive: fold into captured state from a goroutine.
func foldInGoroutine(vals []float64) float64 {
	var a acc
	done := make(chan struct{})
	go func() {
		for _, v := range vals {
			a.add(v) // want "acc\\.add folds floats into a, declared outside, from a goroutine"
		}
		close(done)
	}()
	<-done
	return a.total
}

// Positive: fold via helper in channel-receive order.
func foldInChanRange(ch chan float64) float64 {
	total := 0.0
	for v := range ch {
		addTo(&total, v) // want "addTo folds floats into argument &total, declared outside, in channel-receive order"
	}
	return total
}

// Positive: direct-call goroutine — no literal body scopes a context,
// but the receiver lives in the spawning frame and is shared across
// goroutine completions.
func foldDirectGoRecv(vals []float64) float64 {
	var a acc
	for _, v := range vals {
		go a.add(v) // want "acc\\.add folds floats into a, declared outside, from a goroutine"
	}
	return a.total
}

// Positive: direct-call goroutine into package state.
func foldDirectGoGlobal(vals []float64) {
	for _, v := range vals {
		go bumpGrand(v) // want "bumpGrand folds floats into package-level or captured state from a goroutine"
	}
}

// Positive: direct-call goroutine folding into a pointer argument
// rooted in the spawning frame.
func foldDirectGoParam(vals []float64) float64 {
	total := 0.0
	for _, v := range vals {
		go addTo(&total, v) // want "addTo folds floats into argument &total, declared outside, from a goroutine"
	}
	return total
}

// Positive, reported once: a direct-call goroutine inside a map range
// is judged by its innermost context, the goroutine.
func foldDirectGoInMapRange(m map[string]float64) float64 {
	var a acc
	for _, v := range m {
		go a.add(v) // want "acc\\.add folds floats into a, declared outside, from a goroutine"
	}
	return a.total
}

// Negative: direct-call goroutine of a fold-free callee.
func directGoPure(vals []float64) {
	for _, v := range vals {
		go pure(v)
	}
}

// Negative: the fold target is a fresh allocation with no root
// identifier — nobody outside the call observes it.
func directGoFresh(vals []float64) {
	for _, v := range vals {
		go addTo(new(float64), v)
	}
}

// Negative: the Route pattern — the callee folds, but into a receiver
// acquired inside the loop, so per-iteration state stays private.
func foldLocalRecv(m map[string]float64) float64 {
	best := 0.0
	for k, v := range m {
		var local acc
		local.add(v)
		if local.total > best && k != "" {
			best = local.total
		}
	}
	return best
}

// The call is clean (a callee without fold facts); the float append it
// feeds is not: the slice's element order follows the map.
func callPure(m map[string]float64) {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, pure(v)) // want "element order follows map iteration"
	}
	_ = out
}

// Negative: argument rooted inside the goroutine.
func goroutineLocalFold(vals []float64, slots []float64) {
	for i := range slots {
		i := i
		go func() {
			local := 0.0
			for _, v := range vals {
				addTo(&local, v)
			}
			slots[i] = local
		}()
	}
}

// The pocd writer-loop shape: handle folds into nested receiver
// state through a two-level call chain, and the chan-range drain is
// what gets flagged (pocd sanctions its own instance with an allow —
// the journal records the receive order).
type srvState struct{ total float64 }

func (st *srvState) apply(v float64) { st.total += v }

type srv struct{ st srvState }

func (s *srv) handle(v float64) { s.st.apply(v) }

// Positive: the unsanctioned writer loop.
func (s *srv) drain(ch chan float64) {
	for v := range ch {
		s.handle(v) // want "srv\\.handle folds floats into s, declared outside, in channel-receive order"
	}
}

// Sanctioned: the annotated writer loop.
func (s *srv) drainAllowed(ch chan float64) {
	for v := range ch {
		s.handle(v) //lint:allow floatorder receive order is journaled upstream; replay reproduces it
	}
}

// Sanctioned: a fold the author defends.
func allowedFold(m map[string]float64) float64 {
	var a acc
	for _, v := range m {
		a.add(v) //lint:allow floatorder result feeds a max, not a sum; order-insensitive
	}
	return a.total
}
