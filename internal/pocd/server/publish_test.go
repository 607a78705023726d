package server

import (
	"bytes"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/obs"
)

// TestUnrenderableExportFailsOnlyTheObsRead: encoding/json rejects
// ±Inf, so one Inf gauge makes the export unrenderable. That used to
// answer 500 to a mutation that was already journaled AND applied, and
// to every mutation after it. Publication no longer renders, so the
// mutation succeeds, stays replayable, and the render error belongs to
// the /v1/obs read that asked for the bytes.
func TestUnrenderableExportFailsOnlyTheObsRead(t *testing.T) {
	var reg *obs.Registry
	s, _, path := newTestServer(t, func(cfg *Config) {
		cfg.Build = func(spec []byte) (*core.POC, *obs.Registry, error) {
			p, r, err := buildRing(spec)
			reg = r
			return p, r, err
		}
		// On the writer goroutine, ahead of the op: a serial section.
		cfg.applyGate = func(*Op) { reg.Set("test.poison", math.Inf(1)) }
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	obsExport(t, ts) // renderable until the first op
	for _, step := range script[:4] {
		if code, body := post(t, ts, step.path, step.body); code != 200 {
			t.Fatalf("POST %s: %d: %s", step.path, code, body)
		}
	}
	if resp, body := get(t, ts, "/v1/obs"); resp.StatusCode != 500 || !bytes.Contains(body, []byte("obs export")) {
		t.Fatalf("GET /v1/obs with an Inf gauge: %d: %s; want 500 naming the export", resp.StatusCode, body)
	}
	if resp, body := get(t, ts, "/v1/status"); resp.StatusCode != 200 {
		t.Fatalf("GET /v1/status beside a failing export: %d: %s", resp.StatusCode, body)
	}
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// All four ops are in the journal and replay into a deployment
	// that holds the two admitted flows.
	res, _, err := ReplayFile(path, buildRing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 4 || !res.Sealed {
		t.Fatalf("journal %+v, want 4 ops, sealed", res)
	}
	s2, err := New(Config{Build: buildRing, JournalPath: path, NoFsync: true, Now: (&fakeClock{}).now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	if ops, flows := s2.Recovered().Ops, s2.snap.Load().State.Flows; ops != 4 || flows != 2 {
		t.Fatalf("recovered %d ops and %d flows, want 4 and 2", ops, flows)
	}
}

// mustDo runs one mutation through the writer, HTTP left out.
func mustDo(tb testing.TB, s *Server, op *Op) {
	tb.Helper()
	if rep := s.do(op, nil); rep.err != nil {
		tb.Fatalf("%s: %v", op.Op, rep.err)
	}
}

// historyServer returns a daemon on the ring with two members and
// `epochs` billed epochs behind it, i.e. `epochs` points on each of
// the four core.epoch.* timelines.
func historyServer(tb testing.TB, epochs int) *Server {
	tb.Helper()
	s, err := New(Config{
		Spec:        []byte(`{"scenario":"ring"}`),
		Build:       buildRing,
		JournalPath: tb.TempDir() + "/pocd.journal",
		NoFsync:     true,
		Now:         (&fakeClock{}).now,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Shutdown() })
	mustDo(tb, s, &Op{Op: "attach", Name: "metro-lmp", Kind: "lmp", Router: 0})
	mustDo(tb, s, &Op{Op: "attach", Name: "cloud-csp", Kind: "csp", Router: 2})
	for i := 0; i < epochs; i++ {
		mustDo(tb, s, &Op{Op: "bill_epoch", Seconds: 60})
	}
	return s
}

func startFlow(tb testing.TB, s *Server) {
	mustDo(tb, s, &Op{Op: "start_flows", Flows: []FlowReq{{Src: "metro-lmp", Dst: "cloud-csp", Gbps: 0.01}}})
}

// TestPublishCostIndependentOfHistory is the regression gate on what a
// mutation pays to publish, in bytes allocated rather than wall time:
// a daemon with 1 000 billed epochs behind it must allocate about what
// one with 10 does per start_flows. A publish that renders the export
// (~13 kB at 10 epochs, ~75 kB at 1 000, each render several times its
// size) or copies the timelines fails this several-fold.
func TestPublishCostIndependentOfHistory(t *testing.T) {
	const ops = 200
	perOp := func(epochs int) float64 {
		s := historyServer(t, epochs)
		startFlow(t, s) // first-use allocations stay out of the measure
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			startFlow(t, s)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / ops
	}
	short, long := perOp(10), perOp(1000)
	t.Logf("bytes allocated per start_flows: %.0f after 10 epochs, %.0f after 1000 (x%.2f)", short, long, long/short)
	if long > 1.25*short {
		t.Fatalf("a mutation allocates %.0f B after 1000 epochs vs %.0f B after 10 (x%.2f, limit 1.25): publication cost grows with history",
			long, short, long/short)
	}
}

// BenchmarkWriterMutation: ns/op and B/op of one start_flows through
// the single writer (journal append without fsync, apply, publish) on
// a daemon with 1 000 billed epochs of history.
func BenchmarkWriterMutation(b *testing.B) {
	s := historyServer(b, 1000)
	startFlow(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		startFlow(b, s)
	}
}
