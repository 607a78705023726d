package arenalab

import (
	"errors"

	"arenalab/pool"
)

// Positive: the error path returns without releasing.
func leakEarlyReturn(ws *pool.Workspace, fail bool) error {
	rt := ws.Acquire() // want "rt acquired by Acquire .*not released on the path reaching the return"
	if fail {
		return errors.New("boom")
	}
	ws.Release(rt)
	return nil
}

// Positive: falling off the end while still holding.
func leakFallOff(ws *pool.Workspace) {
	rt := ws.Acquire() // want "rt acquired by Acquire .*not released"
	rt.Resid[0] = 1
}

// Positive: re-acquiring into the same variable drops the held one.
func leakOverwrite(ws *pool.Workspace) {
	rt := ws.Acquire() // want "rt acquired by Acquire is overwritten at line \\d+ while still held"
	rt = ws.Acquire()
	ws.Release(rt)
}

// Positive: only one switch arm releases.
func leakSwitchArm(ws *pool.Workspace, mode int) {
	rt := ws.Acquire() // want "rt acquired by Acquire .*not released"
	switch mode {
	case 0:
		ws.Release(rt)
	case 1:
		rt.Resid[0] = 2
	}
}

// Positive: the continue path carries the held router across the loop
// backedge and out of the loop; the diagnostic names the unreleased
// exit path rather than misreading the next iteration's acquire as an
// overwrite of the value it just bound.
func leakLoopContinue(ws *pool.Workspace, n int) {
	for i := 0; i < n; i++ {
		rt := ws.Acquire() // want "rt acquired by Acquire .*not released on the path reaching the end of the function"
		if i == 0 {
			continue
		}
		ws.Release(rt)
	}
}

// Negative: both the continue path and the fall-through release before
// the backedge.
func okLoopContinue(ws *pool.Workspace, vals []int) {
	for _, v := range vals {
		rt := ws.Acquire()
		if v < 0 {
			ws.Release(rt)
			continue
		}
		rt.Resid[0] = float64(v)
		ws.Release(rt)
	}
}

// Negative: deferred release covers every exit, panics included.
func okDefer(ws *pool.Workspace, fail bool) error {
	rt := ws.Acquire()
	defer ws.Release(rt)
	if fail {
		return errors.New("boom")
	}
	rt.Resid[0] = 1
	return nil
}

// Negative: released on both arms.
func okBothArms(ws *pool.Workspace, fail bool) error {
	rt := ws.Acquire()
	if fail {
		ws.Release(rt)
		return errors.New("boom")
	}
	rt.Resid[0] = 1
	ws.Release(rt)
	return nil
}

// Negative: ownership transferred to the caller.
func okReturned(ws *pool.Workspace) *pool.Router {
	rt := ws.Acquire()
	rt.Resid[0] = 1
	return rt
}

// Negative: ownership stored into longer-lived state (whoever owns
// holder is checked where it releases).
type holder struct{ rt *pool.Router }

func okStored(ws *pool.Workspace, h *holder) {
	rt := ws.Acquire()
	h.rt = rt
}

// Negative: acquire/release per loop iteration.
func okLoop(ws *pool.Workspace, n int) {
	for i := 0; i < n; i++ {
		rt := ws.Acquire()
		rt.Resid[0] = float64(i)
		ws.Release(rt)
	}
}

// Negative: released after a labeled break.
func okLabeledBreak(ws *pool.Workspace, vals []int) {
	rt := ws.Acquire()
scan:
	for _, v := range vals {
		if v < 0 {
			break scan
		}
		rt.Resid[0] += float64(v)
	}
	ws.Release(rt)
}

// Sanctioned: a leak the author takes responsibility for.
func allowedLeak(ws *pool.Workspace, fail bool) {
	rt := ws.Acquire() //lint:allow arenapair process exits immediately after; pool dies with it
	if fail {
		return
	}
	ws.Release(rt)
}

// Positive, second kind: an internal routing — a failure scenario's,
// summarised and dropped — leaks on the infeasible path.
func leakScenarioRouting(ws *pool.Workspace) bool {
	r := ws.Route() // want "r acquired by Route \\(kind .routing.\\) is not released on the path reaching the return"
	if r.Lists == nil {
		return false
	}
	ws.GiveRouting(r)
	return true
}

// Negative: given back on both paths; the base routing goes to the
// caller, who owns it for good.
func okScenarioRouting(ws *pool.Workspace) (bool, *pool.Routing) {
	base := ws.Route()
	r := ws.Route()
	if r.Lists == nil {
		ws.GiveRouting(r)
		return false, base
	}
	ws.GiveRouting(r)
	return true, base
}
