package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/pocd/journal"
	"github.com/public-option/poc/internal/pocd/ratelimit"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// buildRing is the test BuildFunc: a 4-router ring with a chord, each
// link under its own BP, auctioned and activated. It is fully
// deterministic in (and independent of) the spec, which is exactly
// what recovery requires.
func buildRing(spec []byte) (*core.POC, *obs.Registry, error) {
	net := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 4)},
		Routers: []int{0, 1, 2, 3},
	}
	for i := 0; i < 5; i++ {
		net.BPs = append(net.BPs, topo.BP{Name: "bp", CostMult: 1})
	}
	add := func(bp, a, b int, dist float64) {
		net.Links = append(net.Links, topo.LogicalLink{
			ID: len(net.Links), BP: bp, A: a, B: b, Capacity: 100, DistanceKm: dist,
		})
	}
	add(0, 0, 1, 100)
	add(1, 1, 2, 100)
	add(2, 2, 3, 100)
	add(3, 3, 0, 100)
	add(4, 0, 2, 250)

	tm := traffic.NewMatrix(4)
	tm.Set(0, 2, 20)
	tm.Set(2, 0, 20)
	tm.Set(1, 3, 10)
	tm.Set(3, 1, 10)

	reg := obs.New()
	p, err := core.New(core.Config{
		Network:       net,
		TM:            tm,
		Constraint:    provision.Constraint1,
		ReserveMargin: 0.02,
		Obs:           reg,
	})
	if err != nil {
		return nil, nil, err
	}
	for b := range net.BPs {
		links := net.LinksOfBP(b)
		price := func(id int) float64 { return 100 * net.Links[id].DistanceKm / 100 }
		if err := p.SubmitBid(auction.Bid{BP: b, Links: links, Cost: auction.AdditiveCost(links, price)}); err != nil {
			return nil, nil, err
		}
	}
	if _, err := p.RunAuction(); err != nil {
		return nil, nil, err
	}
	if err := p.Activate(); err != nil {
		return nil, nil, err
	}
	return p, reg, nil
}

// fakeClock is an injectable clock the tests advance by hand.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *fakeClock, string) {
	t.Helper()
	clock := &fakeClock{}
	path := filepath.Join(t.TempDir(), "pocd.journal")
	cfg := Config{
		Spec:        []byte(`{"scenario":"ring"}`),
		Build:       buildRing,
		JournalPath: path,
		NoFsync:     true,
		Now:         clock.now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, clock, path
}

// post sends one mutation through the HTTP surface. It stops the test
// on a transport error, so only the test's own goroutine may call it;
// a client goroutine calls tryPost and reports with t.Errorf.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	code, b, err := tryPost(ts, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, b
}

// get is post for a read: the test's own goroutine only (see tryGet).
func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, b, err := tryGet(ts, path)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// tryPost is post returning the transport error: t.Fatal ends only
// the goroutine that calls it, so a client goroutine reports with
// t.Errorf and goes on to send what its test waits for.
func tryPost(ts *httptest.Server, path, body string) (int, string, error) {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// tryGet is get returning the transport error (see tryPost).
func tryGet(ts *httptest.Server, path string) (*http.Response, []byte, error) {
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// script drives a representative session: membership, QoS, flows,
// chaos, billing, recall — every op kind the journal must survive.
var script = []struct{ path, body string }{
	{"/v1/members", `{"name":"metro-lmp","kind":"lmp","router":0}`},
	{"/v1/members", `{"name":"cloud-csp","kind":"csp","router":2}`},
	{"/v1/qos", `{"name":"gold","weight":4,"price":2.5,"max_latency_km":1000}`},
	{"/v1/flows", `{"flows":[{"src":"metro-lmp","dst":"cloud-csp","gbps":5},{"src":"cloud-csp","dst":"metro-lmp","gbps":3,"class":"gold"}]}`},
	{"/v1/epoch", `{"seconds":3600}`},
	// The ring auction selects links 1, 2, 3; chaos and recall must
	// act on leased links to exercise real transitions.
	{"/v1/chaos", `{"kind":"cut-link","link":2}`},
	{"/v1/epoch", `{"seconds":3600}`},
	{"/v1/chaos", `{"kind":"repair-link","link":2}`},
	{"/v1/flows/stop", `{"ids":[1]}`},
	{"/v1/recall", `{"link":1,"penalty_rate":0.1}`},
	{"/v1/epoch", `{"seconds":1800}`},
}

// obsExport reads /v1/obs and fails on an error response.
func obsExport(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, b := get(t, ts, "/v1/obs")
	if resp.StatusCode != 200 {
		t.Fatalf("obs: status %d: %s", resp.StatusCode, b)
	}
	return b
}

// writerExport renders the obs export of the state the writer holds,
// read on the writer through its queue. It is not the published
// snapshot: an op applied and then refused returns before the writer
// publishes, so only the writer's own state shows it.
func writerExport(t *testing.T, s *Server) []byte {
	t.Helper()
	rep := s.do(nil, func(st *state) (any, error) { return st.reg.ExportJSON() })
	if rep.err != nil {
		t.Fatalf("writer export: %v", rep.err)
	}
	return rep.val.([]byte)
}

// recordEnds parses the journal frame structure and returns the byte
// offset just past each record (header record first).
func recordEnds(t *testing.T, raw []byte) []int64 {
	t.Helper()
	const frameHeader = 4 + 1 + 8 + 4
	var ends []int64
	off := int64(len(journal.Magic))
	for off < int64(len(raw)) {
		if off+frameHeader > int64(len(raw)) {
			t.Fatalf("trailing garbage at %d", off)
		}
		n := int64(binary.LittleEndian.Uint32(raw[off:]))
		off += frameHeader + n
		if off > int64(len(raw)) {
			t.Fatalf("record overruns file at %d", off)
		}
		ends = append(ends, off)
	}
	return ends
}

// TestRecoveryAtEveryRecordBoundary is the crash-recovery property
// test at the server level: run the scripted session, then for every
// record boundary (and a cut strictly inside the following record)
// restart a server from that truncated journal and require its state
// and obs export to be byte-identical to what the original server
// reported right after the corresponding op. Torn records must be
// dropped whole — never half-applied.
func TestRecoveryAtEveryRecordBoundary(t *testing.T) {
	s, _, path := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// exports[k] / statuses[k] = observed state after k applied ops.
	exports := [][]byte{obsExport(t, ts)}
	statuses := []string{}
	_, st0 := get(t, ts, "/v1/status")
	statuses = append(statuses, string(st0))
	for _, step := range script {
		code, body := post(t, ts, step.path, step.body)
		if code != 200 {
			t.Fatalf("POST %s: status %d: %s", step.path, code, body)
		}
		exports = append(exports, obsExport(t, ts))
		_, sb := get(t, ts, "/v1/status")
		statuses = append(statuses, string(sb))
	}
	ts.Close()
	// No Shutdown: the original "crashes" with an unsealed journal.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	ends := recordEnds(t, raw)
	if len(ends) != len(script)+1 {
		t.Fatalf("journal has %d records, want %d", len(ends), len(script)+1)
	}
	for i, end := range ends {
		ops := i // record 0 is the header
		cuts := []int64{end}
		if i+1 < len(ends) {
			// A cut strictly inside the next record: torn tail.
			cuts = append(cuts, end+(ends[i+1]-end)/2)
		}
		for _, cut := range cuts {
			trunc := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d.journal", cut))
			if err := os.WriteFile(trunc, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			clock := &fakeClock{}
			s2, err := New(Config{
				Build:       buildRing,
				JournalPath: trunc,
				NoFsync:     true,
				Now:         clock.now,
			})
			if err != nil {
				t.Fatalf("cut %d: recover: %v", cut, err)
			}
			rec := s2.Recovered()
			if rec == nil || rec.Ops != ops {
				t.Fatalf("cut %d: recovered %+v, want %d ops", cut, rec, ops)
			}
			ts2 := httptest.NewServer(s2.Handler())
			if got := obsExport(t, ts2); !bytes.Equal(got, exports[ops]) {
				t.Fatalf("cut %d: recovered obs export diverges after %d ops", cut, ops)
			}
			if _, sb := get(t, ts2, "/v1/status"); string(sb) != statuses[ops] {
				t.Fatalf("cut %d: recovered status diverges after %d ops:\n%s\nwant:\n%s", cut, ops, sb, statuses[ops])
			}
			ts2.Close()
			if err := s2.Shutdown(); err != nil {
				t.Fatalf("cut %d: shutdown: %v", cut, err)
			}
		}
	}
}

// TestRecoveredJournalStaysAppendable proves a recovered daemon keeps
// journaling: recover, apply more ops, crash again, recover again —
// the second recovery sees both generations of ops.
func TestRecoveredJournalStaysAppendable(t *testing.T) {
	s, _, path := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	for _, step := range script[:4] {
		if code, body := post(t, ts, step.path, step.body); code != 200 {
			t.Fatalf("POST %s: %d: %s", step.path, code, body)
		}
	}
	ts.Close()
	// Crash (no seal), then chop 3 bytes to tear the final record.
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	clock := &fakeClock{}
	s2, err := New(Config{Build: buildRing, JournalPath: path, NoFsync: true, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if rec := s2.Recovered(); rec.Ops != 3 || rec.TornBytes == 0 {
		t.Fatalf("recovered %+v, want 3 ops and a torn tail", rec)
	}
	ts2 := httptest.NewServer(s2.Handler())
	for _, step := range script[3:6] {
		if code, body := post(t, ts2, step.path, step.body); code != 200 {
			t.Fatalf("POST %s: %d: %s", step.path, code, body)
		}
	}
	wantExport := obsExport(t, ts2)
	ts2.Close()
	if err := s2.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s3, err := New(Config{Build: buildRing, JournalPath: path, NoFsync: true, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Shutdown()
	if rec := s3.Recovered(); rec.Ops != 6 || !rec.Sealed {
		t.Fatalf("second recovery %+v, want 6 ops, sealed", rec)
	}
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	if got := obsExport(t, ts3); !bytes.Equal(got, wantExport) {
		t.Fatal("second recovery's obs export diverges from pre-shutdown export")
	}
}

// TestGateRewriteJournaledExactly: the journal must carry the op as
// applied, not as submitted. applyGate runs before journaling and may
// rewrite the op; the bytes appended to the journal must be marshaled
// AFTER the gate, or replay rebuilds a different state than the live
// daemon held (the op was journaled with the pre-rewrite fields but
// applied with the post-rewrite ones).
func TestGateRewriteJournaledExactly(t *testing.T) {
	s, _, path := newTestServer(t, func(cfg *Config) {
		cfg.applyGate = func(op *Op) {
			if op.Op == "publish_qos" {
				op.Weight *= 2
			}
		}
	})
	ts := httptest.NewServer(s.Handler())
	if code, body := post(t, ts, "/v1/qos", `{"name":"gold","weight":4,"price":2.5}`); code != 200 {
		t.Fatalf("POST /v1/qos: %d: %s", code, body)
	}
	live := obsExport(t, ts)
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// The journal record must already carry the rewritten weight.
	var journaled Op
	if _, err := journal.Replay(path, func(_ uint64, payload []byte) error {
		return json.Unmarshal(payload, &journaled)
	}); err != nil {
		t.Fatal(err)
	}
	if journaled.Weight != 8 {
		t.Fatalf("journaled weight %v, want the post-gate 8: the journal recorded an op that was never applied", journaled.Weight)
	}

	// And replaying it reproduces the live daemon's export and the
	// rewritten catalog entry.
	_, replayed, err := ReplayFile(path, buildRing)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, live) {
		t.Fatal("replayed obs export diverges from the live export")
	}
	s2, err := New(Config{Build: buildRing, JournalPath: path, NoFsync: true, Now: (&fakeClock{}).now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, body := get(t, ts2, "/v1/qos")
	var envelope struct {
		Result []struct {
			Class struct{ Weight float64 }
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("decode /v1/qos: %v: %s", err, body)
	}
	catalog := envelope.Result
	if len(catalog) == 0 || catalog[len(catalog)-1].Class.Weight != 8 {
		t.Fatalf("recovered catalog %s, want the post-gate weight 8", body)
	}
}

// TestTimeoutDecidedBeforeJournal: a mutation that expires while
// queued is rejected whole — no journal record, no state change.
func TestTimeoutDecidedBeforeJournal(t *testing.T) {
	gate := make(chan struct{})
	gateEntered := make(chan struct{})
	s, clock, path := newTestServer(t, func(cfg *Config) {
		cfg.applyGate = func(op *Op) {
			if op.Op == "publish_qos" {
				close(gateEntered)
				<-gate
			}
		}
	})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the writer with a gated op; only once the writer is
	// provably wedged, queue a second mutation and let its deadline
	// lapse before the writer reaches it. Each client sends its result
	// whatever happens, so a failed request fails the test instead of
	// hanging it.
	firstDone := make(chan int)
	go func() {
		code, _, err := tryPost(ts, "/v1/qos", `{"name":"gold","weight":4,"price":2}`)
		if err != nil {
			t.Errorf("gated op: %v", err)
		}
		firstDone <- code
	}()
	select {
	case <-gateEntered:
	case code := <-firstDone:
		t.Fatalf("gated op answered %d before reaching the writer", code)
	}
	secondDone := make(chan string)
	go func() {
		code, body, err := tryPost(ts, "/v1/epoch", `{"seconds":3600}`)
		if err != nil {
			t.Errorf("queued op: %v", err)
		}
		secondDone <- fmt.Sprintf("%d %s", code, body)
	}()
	for i := 0; i < 5000 && len(s.queue) < 1; i++ {
		time.Sleep(time.Millisecond)
	}
	clock.advance(10 * time.Second)
	close(gate)

	if code := <-firstDone; code != 200 {
		t.Fatalf("gated op: status %d", code)
	}
	second := <-secondDone
	if !strings.HasPrefix(second, "503") || !strings.Contains(second, "deadline") {
		t.Fatalf("queued op past deadline: got %q, want 503 deadline", second)
	}
	// The writer holds exactly what the journal replays to: the
	// timed-out op was not applied either.
	if _, replayed, err := ReplayFile(path, buildRing); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(writerExport(t, s), replayed) {
		t.Fatal("the writer's obs export diverges from ReplayFile's after a timed-out op")
	}
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Exactly one op journaled: the gated publish_qos. The timed-out
	// epoch op must not appear.
	res, err := journal.Replay(path, func(seq uint64, payload []byte) error {
		if !strings.Contains(string(payload), "publish_qos") {
			return fmt.Errorf("unexpected journaled op: %s", payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 1 || !res.Sealed {
		t.Fatalf("journal: %+v, want 1 op, sealed", res)
	}
}

// newWedgeableServer starts a server with a depth-1 writer queue. Its
// wedge parks one epoch op in the apply gate (dequeued, not yet
// journaled) and a second in the queue, so the queue is full; the
// returned release lets both through and waits for their replies. A
// test that fails while wedged is released at cleanup, before the
// HTTP server closes.
func newWedgeableServer(t *testing.T) (s *Server, ts *httptest.Server, path string, wedge func() (release func())) {
	t.Helper()
	var armed atomic.Bool
	entered := make(chan struct{})
	gate := make(chan struct{})
	s, _, path = newTestServer(t, func(cfg *Config) {
		cfg.QueueDepth = 1
		cfg.applyGate = func(*Op) {
			if armed.Load() {
				entered <- struct{}{}
				<-gate
			}
		}
	})
	ts = httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	wedge = func() func() {
		armed.Store(true)
		var posts sync.WaitGroup
		epoch := func() {
			defer posts.Done()
			resp, err := http.Post(ts.URL+"/v1/epoch", "application/json", strings.NewReader(`{"seconds":60}`))
			if err != nil {
				t.Errorf("wedged epoch: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("wedged epoch: status %d", resp.StatusCode)
			}
		}
		posts.Add(2)
		go epoch()
		<-entered
		var once sync.Once
		release := func() {
			once.Do(func() {
				armed.Store(false)
				gate <- struct{}{}
				posts.Wait()
			})
		}
		t.Cleanup(release)
		go epoch()
		for i := 0; i < 5000 && len(s.queue) < 1; i++ {
			time.Sleep(time.Millisecond)
		}
		if len(s.queue) != 1 {
			t.Fatal("queue never filled behind the wedged writer")
		}
		return release
	}
	return s, ts, path, wedge
}

// counter reads one counter line from /metrics (-1 when absent).
func counter(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	var n int64 = -1
	for _, line := range strings.Split(string(body), "\n") {
		fmt.Sscanf(line, name+" %d", &n)
	}
	return n
}

// TestSnapshotReadsUnderSaturation: with the writer wedged and the
// queue full, 50 snapshot reads across every snapshot endpoint answer
// 200 without taking a queue slot or counting as shed. /v1/status
// answers from the snapshot of the last applied op, byte for byte what
// a quiet read returned, while a mutation and a /v1/flows read are
// shed with 503.
func TestSnapshotReadsUnderSaturation(t *testing.T) {
	s, ts, _, wedge := newWedgeableServer(t)
	for _, step := range script[:4] {
		if code, body := post(t, ts, step.path, step.body); code != 200 {
			t.Fatalf("POST %s: %d: %s", step.path, code, body)
		}
	}
	_, quiet := get(t, ts, "/v1/status")

	release := wedge()
	shed := counter(t, ts, "pocd_shed_total")
	paths := []string{"/v1/status", "/v1/utilization", "/v1/qos", "/v1/members", "/v1/obs"}
	for i := 0; i < 50; i++ {
		path := paths[i%len(paths)]
		if resp, body := get(t, ts, path); resp.StatusCode != 200 {
			t.Fatalf("read %d, %s: status %d: %s", i, path, resp.StatusCode, body)
		}
		if n := len(s.queue); n != 1 {
			t.Fatalf("read %d, %s: queue length %d, want 1", i, path, n)
		}
	}
	if got := counter(t, ts, "pocd_shed_total"); got != shed {
		t.Fatalf("pocd_shed_total moved from %d to %d over 50 snapshot reads", shed, got)
	}

	resp, body := get(t, ts, "/v1/status")
	if h := resp.Header.Get("X-Pocd-Degraded"); h != "" {
		t.Fatalf("read with full queue: X-Pocd-Degraded %q, want none", h)
	}
	var envelope struct {
		Seq    uint64        `json:"seq"`
		Result core.Snapshot `json:"result"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("read with full queue: bad body: %v", err)
	}
	if envelope.Seq != 4 || envelope.Result.Flows != 2 {
		t.Fatalf("read with full queue: seq %d, %d flows; want the last applied op's seq 4, 2 flows", envelope.Seq, envelope.Result.Flows)
	}
	if !bytes.Equal(body, quiet) {
		t.Fatalf("read with full queue:\n%s\ndiffers from the quiet read:\n%s", body, quiet)
	}
	if code, _ := post(t, ts, "/v1/epoch", `{"seconds":3600}`); code != 503 {
		t.Fatalf("mutation with full queue: status %d, want 503", code)
	}
	if resp, body := get(t, ts, "/v1/flows?id=0"); resp.StatusCode != 503 {
		t.Fatalf("/v1/flows with full queue: status %d: %s; want 503", resp.StatusCode, body)
	}
	if s.mShed.Load() == 0 {
		t.Fatal("shed counter not incremented")
	}

	release()
	// Both wedged epochs applied: the snapshot moved to seq 6.
	_, body = get(t, ts, "/v1/status")
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Seq != 6 || envelope.Result.Epochs != 2 {
		t.Fatalf("read after the drain: seq %d, %d epochs (%v); want 6, 2", envelope.Seq, envelope.Result.Epochs, err)
	}
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRateLimitPerTenant: an over-quota tenant gets 429 without
// consuming writer capacity; other tenants are unaffected.
func TestRateLimitPerTenant(t *testing.T) {
	s, _, _ := newTestServer(t, func(cfg *Config) {
		cfg.RateLimit = ratelimit.Config{Rate: 1, Burst: 2}
	})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := func(tenant string) int {
		r, _ := http.NewRequest("GET", ts.URL+"/v1/status", nil)
		if tenant != "" {
			r.Header.Set("X-POC-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := []int{req("a"), req("a"), req("a")}; got[0] != 200 || got[1] != 200 || got[2] != 429 {
		t.Fatalf("tenant a: %v, want burst of 2 then 429", got)
	}
	if code := req("b"); code != 200 {
		t.Fatalf("tenant b: %d, want independent bucket", code)
	}
	if s.mRateLimited.Load() != 1 {
		t.Fatalf("rate-limited counter = %d, want 1", s.mRateLimited.Load())
	}
}

// TestShutdownDrainsAndSeals: Shutdown answers everything already
// queued, seals the journal, and rejects later mutations.
func TestShutdownDrainsAndSeals(t *testing.T) {
	s, _, path := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, body := post(t, ts, "/v1/epoch", `{"seconds":60}`); code != 200 {
		t.Fatalf("epoch: %d: %s", code, body)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil { // idempotent
		t.Fatal(err)
	}
	if code, _ := post(t, ts, "/v1/epoch", `{"seconds":60}`); code != 503 {
		t.Fatalf("mutation after shutdown: %d, want 503", code)
	}
	resp, _ := get(t, ts, "/readyz")
	if resp.StatusCode != 503 {
		t.Fatalf("readyz after shutdown: %d, want 503", resp.StatusCode)
	}
	res, err := journal.Replay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sealed || res.Ops != 1 {
		t.Fatalf("journal %+v, want sealed with 1 op", res)
	}
}

// TestValidationNeverTouchesJournal: a 400, or a 413 for a body
// longer than one journal record, must not consume a sequence number.
func TestValidationNeverTouchesJournal(t *testing.T) {
	s, _, path := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bad := []struct {
		path, body string
		want       int
	}{
		{"/v1/flows", `{"flows":[]}`, 400},
		{"/v1/flows", `{"flows":[{"src":"a","dst":"b","gbps":-1}]}`, 400},
		{"/v1/members", `{"name":"x","kind":"wat"}`, 400},
		{"/v1/epoch", `{"seconds":0}`, 400},
		{"/v1/chaos", `{"kind":"meteor"}`, 400},
		{"/v1/flows/stop", `{}`, 400},
		// A valid op padded past one journal record.
		{"/v1/flows", `{"flows":[{"src":"a","dst":"b","gbps":1}]}` + strings.Repeat(" ", journal.MaxPayload), 413},
	}
	for _, b := range bad {
		if code, body := post(t, ts, b.path, b.body); code != b.want {
			t.Fatalf("POST %s %.60s: status %d (%s), want %d", b.path, b.body, code, body, b.want)
		}
	}
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	res, err := journal.Replay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 0 {
		t.Fatalf("journal has %d ops after only invalid requests", res.Ops)
	}
}

// TestSpecMismatchRefused: recovering a journal under a different
// deployment spec must fail loudly, not rebuild the wrong network.
func TestSpecMismatchRefused(t *testing.T) {
	s, _, path := newTestServer(t, nil)
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{}
	_, err := New(Config{
		Spec:        []byte(`{"scenario":"other"}`),
		Build:       buildRing,
		JournalPath: path,
		NoFsync:     true,
		Now:         clock.now,
	})
	if err == nil || !strings.Contains(err.Error(), "different deployment spec") {
		t.Fatalf("spec mismatch accepted: %v", err)
	}
}

// TestJournalFailureRefusesLaterMutations: once an append fails, the
// journal writer refuses every later one, so the daemon answers each
// mutation 503 without applying it and the live state stays exactly
// what the journal replays to — no op is acknowledged behind a record
// of unknown durability. The state the writer holds is checked as well
// as the published snapshot, and every /v1 endpoint must still answer:
// a refused op leaves the writer's state as it was, not gone.
func TestJournalFailureRefusesLaterMutations(t *testing.T) {
	s, _, path := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, step := range script[:4] {
		if code, body := post(t, ts, step.path, step.body); code != 200 {
			t.Fatalf("POST %s: %d: %s", step.path, code, body)
		}
	}
	// Closing the file on the writer goroutine makes the next append
	// fail.
	if rep := s.do(nil, func(st *state) (any, error) { return nil, st.jw.Close() }); rep.err != nil {
		t.Fatal(rep.err)
	}
	// One op of every kind, script[4:] and the kinds it lacks.
	mutations := append([]struct{ path, body string }{
		{"/v1/members", `{"name":"late-lmp","kind":"lmp","router":1}`},
		{"/v1/qos", `{"name":"silver","weight":2,"price":1}`},
		{"/v1/flows", `{"flows":[{"src":"metro-lmp","dst":"cloud-csp","gbps":1}]}`},
		{"/v1/reauction", ``},
	}, script[4:]...)
	for _, step := range mutations {
		if code, body := post(t, ts, step.path, step.body); code != 503 {
			t.Fatalf("POST %s on a broken journal: %d (%s), want 503", step.path, code, body)
		}
	}
	res, replayed, err := ReplayFile(path, buildRing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 4 || res.TornBytes != 0 {
		t.Fatalf("journal replays %+v, want the 4 acknowledged ops", res)
	}
	if !bytes.Equal(obsExport(t, ts), replayed) {
		t.Fatal("live obs export diverges from ReplayFile's after a journal failure")
	}
	if !bytes.Equal(writerExport(t, s), replayed) {
		t.Fatal("the writer's obs export diverges from ReplayFile's after a journal failure")
	}
	for _, path := range []string{"/v1/status", "/v1/utilization", "/v1/qos", "/v1/members", "/v1/obs", "/v1/flows?id=0"} {
		if resp, body := get(t, ts, path); resp.StatusCode != 200 {
			t.Fatalf("GET %s on a broken journal: %d (%s), want 200", path, resp.StatusCode, body)
		}
	}
	if err := s.Shutdown(); err == nil {
		t.Fatal("shutdown reported a clean seal on a broken journal")
	}
}

// TestReplyEnvelopeBytes pins the wire bytes of the reply envelopes
// and of every op result without a report type of its own, success
// and error alike, against the bytes pocd answered when the envelope
// and the results were maps; and those of the snapshot reads, against
// the bytes pocd answered when each reply made its own encoder.
func TestReplyEnvelopeBytes(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wantGet := func(path, want string) {
		t.Helper()
		if resp, body := get(t, ts, path); resp.StatusCode != 200 || string(body) != want {
			t.Errorf("GET %s: %d\n got %q\nwant %q", path, resp.StatusCode, body, want)
		}
	}
	// No flow yet: an empty list, not null.
	wantGet("/v1/utilization", "{\n  \"result\": [],\n  \"seq\": 0\n}\n")
	want := map[int]string{
		0: "{\n  \"result\": {\n    \"endpoint\": 0\n  },\n  \"seq\": 1\n}\n",
		2: "{\n  \"result\": {\n    \"published\": \"gold\"\n  },\n  \"seq\": 3\n}\n",
		3: "{\n  \"result\": {\n    \"ids\": [\n      0,\n      1\n    ]\n  },\n  \"seq\": 4\n}\n",
		5: "{\n  \"result\": {\n    \"acted_links\": [\n      2\n    ],\n    \"moved_flows\": 2\n  },\n  \"seq\": 6\n}\n",
		8: "{\n  \"result\": {\n    \"stopped\": 1\n  },\n  \"seq\": 9\n}\n",
	}
	for i, step := range script {
		code, body := post(t, ts, step.path, step.body)
		if code != 200 {
			t.Fatalf("POST %s: %d: %s", step.path, code, body)
		}
		if w, ok := want[i]; ok && body != w {
			t.Errorf("POST %s %s:\n got %q\nwant %q", step.path, step.body, body, w)
		}
	}
	wantGet("/v1/status", "{\n  \"result\": {\n    \"epochs\": 3,\n    \"flows\": 1,\n    \"leased_links\": 3,\n    \"failed_links\": [\n      1\n    ],\n    \"recalled_links\": [\n      1\n    ],\n    \"members\": [\n      {\n        \"name\": \"cloud-csp\",\n        \"kind\": \"CSP\",\n        \"router\": 2\n      },\n      {\n        \"name\": \"metro-lmp\",\n        \"kind\": \"LMP\",\n        \"router\": 0\n      }\n    ],\n    \"qos\": [\n      {\n        \"Class\": {\n          \"Name\": \"gold\",\n          \"Weight\": 4,\n          \"Price\": 2.5\n        },\n        \"MaxLatencyKm\": 1000\n      }\n    ],\n    \"utilization\": [\n      {\n        \"link\": 2,\n        \"utilization\": 0.05\n      },\n      {\n        \"link\": 3,\n        \"utilization\": 0.05\n      }\n    ]\n  },\n  \"seq\": 11\n}\n")
	wantGet("/v1/utilization", "{\n  \"result\": [\n    {\n      \"link\": 2,\n      \"utilization\": 0.05\n    },\n    {\n      \"link\": 3,\n      \"utilization\": 0.05\n    }\n  ],\n  \"seq\": 11\n}\n")
	wantGet("/v1/members", "{\n  \"result\": [\n    {\n      \"name\": \"cloud-csp\",\n      \"kind\": \"CSP\",\n      \"router\": 2\n    },\n    {\n      \"name\": \"metro-lmp\",\n      \"kind\": \"LMP\",\n      \"router\": 0\n    }\n  ],\n  \"seq\": 11\n}\n")
	wantGet("/v1/qos", "{\n  \"result\": [\n    {\n      \"Class\": {\n        \"Name\": \"gold\",\n        \"Weight\": 4,\n        \"Price\": 2.5\n      },\n      \"MaxLatencyKm\": 1000\n    }\n  ],\n  \"seq\": 11\n}\n")
	for _, c := range []struct {
		path, body string
		code       int
		want       string
	}{
		{"/v1/members", `{"name":"metro-lmp","kind":"lmp","router":0}`, 422,
			"{\n  \"error\": \"netsim: endpoint \\\"metro-lmp\\\" already attached\",\n  \"seq\": 12\n}\n"},
		{"/v1/chaos", `{"kind":"cut-link","link":0}`, 200,
			"{\n  \"result\": {\n    \"acted_links\": null,\n    \"moved_flows\": 0\n  },\n  \"seq\": 13\n}\n"},
		// Refused before the writer: the error envelope at the
		// published seq, like the writer's own errors.
		{"/v1/epoch", `{"seconds":1e308}`, 400,
			"{\n  \"error\": \"bill_epoch: seconds over the 3.1536e+07 bound\",\n  \"seq\": 13\n}\n"},
		{"/v1/epoch", `{"seconds":`, 400,
			"{\n  \"error\": \"bad request body: unexpected EOF\",\n  \"seq\": 13\n}\n"},
		{"/v1/flows", `{"flows":[{"src":"a","dst":"b","gbps":1}]}` + strings.Repeat(" ", journal.MaxPayload), 413,
			"{\n  \"error\": \"request body exceeds 67108864 bytes\",\n  \"seq\": 13\n}\n"},
	} {
		if code, body := post(t, ts, c.path, c.body); code != c.code || body != c.want {
			t.Errorf("POST %s %.60s: %d\n got %q\nwant %d %q", c.path, c.body, code, body, c.code, c.want)
		}
	}
	wantErr := func(ts *httptest.Server, path string, code int, want string) {
		t.Helper()
		resp, body := get(t, ts, path)
		if resp.StatusCode != code || string(body) != want || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("GET %s: %d (%s)\n got %q\nwant %d %q", path, resp.StatusCode, resp.Header.Get("Content-Type"), body, code, want)
		}
	}
	wantErr(ts, "/v1/flows?id=x", 400, "{\n  \"error\": \"flows: id query parameter required\",\n  \"seq\": 13\n}\n")
	// The mux's own refusals under /v1: no route, and a route without
	// the method, which keeps the mux's Allow header.
	wantErr(ts, "/v1/nope", 404, "{\n  \"error\": \"no route for /v1/nope\",\n  \"seq\": 13\n}\n")
	wantErr(ts, "/v1/epoch", 405, "{\n  \"error\": \"method GET not allowed on /v1/epoch\",\n  \"seq\": 13\n}\n")
	if resp, _ := get(t, ts, "/v1/epoch"); resp.Header.Get("Allow") != "POST" {
		t.Errorf("GET /v1/epoch: Allow %q, want POST", resp.Header.Get("Allow"))
	}
	// Outside /v1 the probes stay text.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if resp, _ := get(t, ts, path); resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
			t.Errorf("GET %s: %d (%s), want 200 text/plain", path, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
	}

	limited, _, _ := newTestServer(t, func(cfg *Config) {
		cfg.RateLimit = ratelimit.Config{Rate: 1, Burst: 1}
	})
	defer limited.Shutdown()
	lts := httptest.NewServer(limited.Handler())
	defer lts.Close()
	if resp, body := get(t, lts, "/v1/status"); resp.StatusCode != 200 { // spends the burst
		t.Fatalf("GET /v1/status: %d: %s", resp.StatusCode, body)
	}
	wantErr(lts, "/v1/status", 429, "{\n  \"error\": \"rate limit exceeded for tenant anonymous\",\n  \"seq\": 0\n}\n")
}

// TestUnencodableReplyAnswers500: the reply is encoded before the
// status goes out, so a result encoding/json refuses (here +Inf)
// answers 500 with the error envelope, not a 200 with an empty body.
func TestUnencodableReplyAnswers500(t *testing.T) {
	w := httptest.NewRecorder()
	new(Server).writeReply(w, reply{val: map[string]float64{"x": math.Inf(1)}, seq: 7})
	want := "{\n  \"error\": \"encode reply: json: unsupported value: +Inf\",\n  \"seq\": 7\n}\n"
	if w.Code != 500 || w.Body.String() != want || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("unencodable reply: %d %q (%s), want 500 %q", w.Code, w.Body, w.Header().Get("Content-Type"), want)
	}
}

// TestOverflowingOpsRefused: an op whose amounts would overflow the
// ledger to ±Inf or NaN is refused with 400 before it is journaled. A
// 1e308 s epoch used to panic the writer on its NaN revenue, and again
// on every recovery; a 1e308 penalty rate put +Inf in the registry, so
// its reply and every later /v1/obs read failed, replay included.
func TestOverflowingOpsRefused(t *testing.T) {
	for _, poison := range []struct{ op, path, body string }{
		{"bill_epoch", "/v1/epoch", `{"seconds":1e308}`},
		{"recall", "/v1/recall", `{"link":1,"penalty_rate":1e308}`},
	} {
		t.Run(poison.op, func(t *testing.T) {
			s, _, path := newTestServer(t, nil)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, step := range script[:5] {
				if code, body := post(t, ts, step.path, step.body); code != 200 {
					t.Fatalf("POST %s: %d: %s", step.path, code, body)
				}
			}
			if code, body := post(t, ts, poison.path, poison.body); code != 400 {
				t.Fatalf("POST %s %s: %d: %s, want 400", poison.path, poison.body, code, body)
			}
			// The writer is alive and the registry renders.
			if code, body := post(t, ts, "/v1/epoch", `{"seconds":60}`); code != 200 {
				t.Fatalf("epoch after the refused op: %d: %s", code, body)
			}
			live := obsExport(t, ts)
			ts.Close()
			if err := s.Shutdown(); err != nil {
				t.Fatal(err)
			}
			viaNew, viaReplay := recoveredExports(t, path)
			if !bytes.Equal(viaNew, live) || !bytes.Equal(viaReplay, live) {
				t.Fatal("recovered obs export diverges from the live one")
			}
			if res, err := journal.Replay(path, nil); err != nil || res.Ops != 6 {
				t.Fatalf("journal holds %+v (%v), want the 6 accepted ops", res, err)
			}
		})
	}
}
