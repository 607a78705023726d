//go:build !race

package server

import (
	"net/http"
	"testing"
)

// TestAllocBudgetPublish: on a warm daemon whose obs registry has not
// been written since the last publish, publish allocates only the
// Snapshot, which carries its capture and its render-once state, and
// core.Snapshot's utilization slice: 2 objects, and nothing per
// recorded name: Capture hands out the previous export's maps, and the
// member list is memoized. (The race detector inflates counts, hence
// the build tag.)
func TestAllocBudgetPublish(t *testing.T) {
	s := historyServer(t, 10)
	startFlow(t, s)
	// publish reads the writer's state, so it is measured on the writer
	// goroutine, in a read closure.
	rep := s.do(nil, func(st *state) (any, error) {
		publish := func() { s.publish(st) }
		publish()
		return testing.AllocsPerRun(100, publish), nil
	})
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	const budget = 2
	if got := rep.val.(float64); got > budget {
		t.Fatalf("publish with no registry write since the last allocates %v objects, budget %d", got, budget)
	}
}

// discardWriter is a ResponseWriter that keeps only its header map.
type discardWriter http.Header

func (w discardWriter) Header() http.Header         { return http.Header(w) }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestAllocBudgetReply: a warm writeJSON of a /v1/status reply encodes
// into a pooled buffer whose encoder keeps its indent buffer, so the
// one object it allocates is the Content-Type header's value. An
// encoder made per reply allocates itself and, growing it, its indent
// buffer again on every reply.
func TestAllocBudgetReply(t *testing.T) {
	s := historyServer(t, 10)
	startFlow(t, s)
	sn := s.snap.Load()
	var v any = resultEnvelope{Result: sn.State, Seq: sn.Seq}
	w := discardWriter{}
	reply := func() {
		if err := writeJSON(w, http.StatusOK, v); err != nil {
			t.Fatal(err)
		}
	}
	reply()
	const budget = 1
	if got := testing.AllocsPerRun(100, reply); got > budget {
		t.Fatalf("a warm status reply allocates %v objects, budget %d", got, budget)
	}
}
