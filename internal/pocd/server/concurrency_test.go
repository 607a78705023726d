package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/pocd/journal"
)

// TestConcurrentClientsMatchSequentialReplay hammers the daemon with
// concurrent clients issuing a mix of admissions, releases, queries,
// billing, and chaos, then checks the core invariant: however the
// HTTP layer interleaved them, the journal records ONE serial history,
// and replaying that history sequentially into a fresh deployment
// reproduces the live server's obs export byte for byte. Run under
// -race this also polices the single-writer ownership discipline.
func TestConcurrentClientsMatchSequentialReplay(t *testing.T) {
	s, _, path := newTestServer(t, func(cfg *Config) {
		cfg.QueueDepth = 256 // don't shed: every mutation must land
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed members so flows have endpoints to ride on.
	for _, step := range script[:3] {
		if code, body := post(t, ts, step.path, step.body); code != 200 {
			t.Fatalf("seed %s: %d: %s", step.path, code, body)
		}
	}

	const clients = 8
	const rounds = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// post and get would t.Fatal, which ends only this
			// goroutine: the client stops at its first transport error
			// and reports it.
			var err error
			send := func(path, body string) (code int, b string) {
				if err == nil {
					code, b, err = tryPost(ts, path, body)
				}
				return code, b
			}
			read := func(path string) int {
				if err == nil {
					var resp *http.Response
					if resp, _, err = tryGet(ts, path); err == nil {
						return resp.StatusCode
					}
				}
				return 0
			}
			for r := 0; r < rounds && err == nil; r++ {
				switch (c + r) % 6 {
				case 0:
					code, body := send("/v1/flows",
						`{"flows":[{"src":"metro-lmp","dst":"cloud-csp","gbps":0.5}]}`)
					if err == nil && code != 200 {
						t.Errorf("client %d: flows: %d: %s", c, code, body)
					}
				case 1:
					// May stop an already-stopped or never-admitted ID:
					// a legitimate no-op, journaled like everything else.
					send("/v1/flows/stop", fmt.Sprintf(`{"ids":[%d]}`, r))
				case 2:
					if code := read("/v1/status"); err == nil && code != 200 {
						t.Errorf("client %d: status: %d", c, code)
					}
				case 3:
					send("/v1/epoch", `{"seconds":60}`)
				case 4:
					kind := "cut-link"
					if r%2 == 1 {
						kind = "repair-link"
					}
					send("/v1/chaos", fmt.Sprintf(`{"kind":%q,"link":2}`, kind))
				case 5:
					// Duplicate publishes 422 after the first; apply
					// errors are journaled and must replay identically.
					send("/v1/qos",
						fmt.Sprintf(`{"name":"silver","weight":2,"price":1.5,"max_latency_km":2000}`))
					if code := read("/v1/obs"); err == nil && code != 200 {
						t.Errorf("client %d: obs: %d", c, code)
					}
				}
			}
			if err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		s.Shutdown()
		return // the clients' errors say what went wrong
	}

	liveExport := obsExport(t, ts)
	_, liveStatusBytes := get(t, ts, "/v1/status")
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Sequential ground truth: fresh deployment, replay the journal.
	p, reg, err := buildRing(nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed := &state{poc: p, reg: reg}
	res, err := journal.Replay(path, func(seq uint64, payload []byte) error {
		var op Op
		if err := json.Unmarshal(payload, &op); err != nil {
			return err
		}
		replayed.apply(&op)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sealed {
		t.Fatalf("journal not sealed after shutdown: %+v", res)
	}
	replayExport, err := replayed.reg.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveExport, replayExport) {
		t.Fatalf("concurrent obs export diverges from sequential replay of %d ops", res.Ops)
	}
	// The live status body wraps the snapshot in {"seq","result"};
	// decode both sides to the same struct and compare structurally.
	var wrapped struct {
		Result core.Snapshot `json:"result"`
	}
	if err := json.Unmarshal(liveStatusBytes, &wrapped); err != nil {
		t.Fatal(err)
	}
	// Compare canonical JSON: omitempty normalizes the nil-vs-empty
	// slice distinction DeepEqual would trip over.
	liveJSON, _ := json.Marshal(wrapped.Result)
	replayJSON, _ := json.Marshal(replayed.poc.Snapshot())
	if !bytes.Equal(liveJSON, replayJSON) {
		t.Fatalf("concurrent snapshot diverges from sequential replay:\n%s\nwant:\n%s",
			liveJSON, replayJSON)
	}
}

// TestObsReadsUnderSaturation covers /v1/obs with the writer wedged
// before journaling the next op and the queue full: concurrent obs
// reads must all answer 200, unmarked, stamped with the seq of the
// last APPLIED op, carrying exactly the bytes a quiet read returned at
// that seq — and however many readers share a snapshot, it renders
// once. Mutations alone render nothing.
func TestObsReadsUnderSaturation(t *testing.T) {
	s, ts, path, wedge := newWedgeableServer(t)

	// wedgedReads issues 8 concurrent GET /v1/obs, requires each to be
	// a 200 at wantSeq, and returns the bodies.
	wedgedReads := func(wantSeq uint64) [][]byte {
		bodies := make([][]byte, 8)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/v1/obs")
				if err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				defer resp.Body.Close()
				bodies[i], _ = io.ReadAll(resp.Body)
				if resp.StatusCode != 200 || resp.Header.Get("X-Pocd-Seq") != strconv.FormatUint(wantSeq, 10) ||
					resp.Header.Get("X-Pocd-Degraded") != "" {
					t.Errorf("reader %d: status %d, seq %q, degraded %q; want 200, %d, none", i,
						resp.StatusCode, resp.Header.Get("X-Pocd-Seq"), resp.Header.Get("X-Pocd-Degraded"), wantSeq)
				}
			}(i)
		}
		wg.Wait()
		return bodies
	}

	for _, step := range script[:5] {
		if code, body := post(t, ts, step.path, step.body); code != 200 {
			t.Fatalf("POST %s: %d: %s", step.path, code, body)
		}
	}
	if n := counter(t, ts, "pocd_obs_renders_total"); n != 0 {
		t.Fatalf("%d renders after a mutation-only burst, want 0", n)
	}

	// A snapshot a quiet read already rendered: the wedged readers get
	// those bytes back and add no render.
	seq := s.Seq()
	quiet := obsExport(t, ts)
	release := wedge()
	for i, body := range wedgedReads(seq) {
		if !bytes.Equal(body, quiet) {
			t.Errorf("reader %d: export differs from the quiet export at seq %d", i, seq)
		}
	}
	if n := counter(t, ts, "pocd_obs_renders_total"); n != 1 {
		t.Fatalf("%d renders for 9 reads of one snapshot, want 1", n)
	}
	release()

	// A snapshot nobody has read: 8 readers racing for it render it
	// once. The wedged writer sits before the journal append, so the
	// registry, fetched through the writer beforehand, is quiescent and
	// can be exported for reference.
	seq += 2
	reg := s.do(nil, func(st *state) (any, error) { return st.reg, nil }).val.(*obs.Registry)
	release = wedge()
	want, err := reg.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range wedgedReads(seq) {
		if !bytes.Equal(body, want) {
			t.Errorf("reader %d: export differs from the registry at seq %d", i, seq)
		}
	}
	if n := counter(t, ts, "pocd_obs_renders_total"); n != 2 {
		t.Fatalf("%d renders, want exactly one more for 8 readers of one snapshot", n)
	}
	release()

	// Drained: the export equals the journal's replay.
	live := obsExport(t, ts)
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_, replayed, err := ReplayFile(path, buildRing)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, replayed) {
		t.Fatal("export after the drain diverges from ReplayFile's")
	}
}

// spaces reads as n ASCII spaces.
type spaces struct{ n int64 }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), s.n)]
	for i := range p {
		p[i] = ' '
	}
	s.n -= int64(len(p))
	return len(p), nil
}

// TestOversizedBodyWhileMutating sends a body longer than one journal
// record on a fresh connection while two clients keep mutations in
// flight. The body is refused with 413 while it is read, before it
// reaches the writer, and neither the refusal nor the mutations around
// it move the live state off the journal's replay.
func TestOversizedBodyWhileMutating(t *testing.T) {
	s, _, path := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, step := range script[:3] {
		if code, body := post(t, ts, step.path, step.body); code != 200 {
			t.Fatalf("seed %s: %d: %s", step.path, code, body)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/epoch", "application/json", strings.NewReader(`{"seconds":60}`))
				if err != nil {
					t.Errorf("mutation: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("mutation: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	// The padding sits inside the op, so Decode itself hits the bound.
	const head, tail = `{"seconds":60`, "}"
	body := io.MultiReader(strings.NewReader(head), &spaces{journal.MaxPayload}, strings.NewReader(tail))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/epoch", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(head)+len(tail)) + journal.MaxPayload
	fresh := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := fresh.Do(req)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	live := obsExport(t, ts)
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_, replayed, err := ReplayFile(path, buildRing)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, replayed) {
		t.Fatal("export after the oversized body diverges from ReplayFile's")
	}
}

// TestSeqWhileMutating calls Seq in a loop while another goroutine
// posts 50 epochs. Seq reads the published snapshot, so under -race it
// shares nothing with the writer; it never goes backwards, reads 50
// once the posts are answered, and still reads 50 after Shutdown has
// written the seal record.
func TestSeqWhileMutating(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const epochs = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < epochs; i++ {
			if code, body, err := tryPost(ts, "/v1/epoch", `{"seconds":60}`); err != nil || code != 200 {
				t.Errorf("epoch %d: status %d (%s), %v", i, code, body, err)
				return
			}
		}
	}()
	for last, posting := uint64(0), true; posting; {
		select {
		case <-done:
			posting = false
		default:
			runtime.Gosched()
		}
		seq := s.Seq()
		if seq < last {
			<-done
			t.Fatalf("Seq went from %d back to %d", last, seq)
		}
		last = seq
	}
	if got := s.Seq(); got != epochs {
		t.Fatalf("Seq %d after %d epochs", got, epochs)
	}
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := s.Seq(); got != epochs {
		t.Fatalf("Seq %d after Shutdown, want %d, the seq before the seal", got, epochs)
	}
}
