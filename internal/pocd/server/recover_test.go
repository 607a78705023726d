package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/public-option/poc/internal/pocd/journal"
)

// scriptPayloads runs script on a live daemon and returns the op
// payloads it journaled.
func scriptPayloads(t *testing.T) [][]byte {
	t.Helper()
	s, _, path := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	for _, step := range script {
		if code, body := post(t, ts, step.path, step.body); code != 200 {
			t.Fatalf("POST %s: %d: %s", step.path, code, body)
		}
	}
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	if _, err := journal.Replay(path, func(_ uint64, p []byte) error {
		out = append(out, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeJournal writes a journal under the ring spec holding payloads.
func writeJournal(t *testing.T, payloads [][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pocd.journal")
	w, err := journal.Create(path, []byte(`{"scenario":"ring"}`), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// recoveredExports recovers the journal at path through New and
// through ReplayFile and returns both obs exports.
func recoveredExports(t *testing.T, path string) (viaNew, viaReplay []byte) {
	t.Helper()
	s, err := New(Config{Build: buildRing, JournalPath: path, NoFsync: true, Now: (&fakeClock{}).now})
	if err != nil {
		t.Fatal(err)
	}
	viaNew, err = s.snap.Load().ObsExport()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_, viaReplay, err = ReplayFile(path, buildRing)
	if err != nil {
		t.Fatal(err)
	}
	return viaNew, viaReplay
}

var (
	floatMember = regexp.MustCompile(`"(gbps|weight|price|max_latency_km|seconds|lat|lon|radius_km|penalty_rate)":([-0-9.eE+]+)`)
	anyKey      = regexp.MustCompile(`"[a-z_]+":`)
)

// reencodings rewrite a canonical op payload into JSON that
// json.Unmarshal reads to the same op but the fast path refuses.
var reencodings = []func(b []byte) []byte{
	func(b []byte) []byte { // whitespace
		var out bytes.Buffer
		json.Indent(&out, b, " ", "\t")
		return out.Bytes()
	},
	func(b []byte) []byte { // keys sorted, so out of declaration order
		var m map[string]any
		json.Unmarshal(b, &m)
		out, _ := json.Marshal(m)
		return out
	},
	func(b []byte) []byte { // every o escaped, in keys and values alike
		return bytes.ReplaceAll(b, []byte("o"), []byte(`\u006f`))
	},
	func(b []byte) []byte { // floats with an upper-case exponent: 3600 as 36E2
		return floatMember.ReplaceAllFunc(b, func(m []byte) []byte {
			key, num, _ := strings.Cut(string(m), ":")
			if mant := strings.TrimRight(num, "0"); !strings.ContainsAny(num, ".eE") && strings.Trim(mant, "-") != "" {
				return []byte(key + ":" + mant + "E" + strconv.Itoa(len(num)-len(mant)))
			}
			return []byte(key + ":" + num + "E0")
		})
	},
	func(b []byte) []byte { // upper-case keys
		return anyKey.ReplaceAllFunc(b, bytes.ToUpper)
	},
}

// TestJournalPayloadsAreMarshalBytes: the writer's reused encoder
// journals each op as exactly json.Marshal's bytes, its newline
// trimmed, and no payload carries a byte of the op encoded before it.
func TestJournalPayloadsAreMarshalBytes(t *testing.T) {
	payloads := scriptPayloads(t)
	if len(payloads) != len(script) {
		t.Fatalf("journal holds %d ops, want %d", len(payloads), len(script))
	}
	for i, p := range payloads {
		var o Op
		if err := json.Unmarshal(p, &o); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
		if want, err := json.Marshal(&o); err != nil || !bytes.Equal(p, want) {
			t.Errorf("op %d journaled as %q, json.Marshal gives %q (%v)", i+1, p, want, err)
		}
	}
}

// TestNonCanonicalJournalRecoversSame: a journal whose payloads are
// the script's ops re-encoded in ways json.Marshal never writes takes
// the encoding/json fallback for every op, and recovers to its
// canonical twin's obs export through New and through ReplayFile.
func TestNonCanonicalJournalRecoversSame(t *testing.T) {
	canonical := scriptPayloads(t)
	var other [][]byte
	for i, b := range canonical {
		alt := reencodings[i%len(reencodings)](b)
		if new(opDecoder).canonical(alt, &Op{}) {
			alt = reencodings[0](alt)
		}
		var want, got Op
		json.Unmarshal(b, &want)
		if err := decodeOp(alt, &got); err != nil || new(opDecoder).canonical(alt, &Op{}) {
			t.Fatalf("re-encoding %s: error %v, or the fast path took it", alt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("re-encoding %s decodes to %+v, want %+v", alt, got, want)
		}
		other = append(other, alt)
	}
	wantNew, wantReplay := recoveredExports(t, writeJournal(t, canonical))
	gotNew, gotReplay := recoveredExports(t, writeJournal(t, other))
	if !bytes.Equal(wantNew, wantReplay) {
		t.Fatal("canonical journal: New and ReplayFile exports differ")
	}
	if !bytes.Equal(gotNew, wantNew) || !bytes.Equal(gotReplay, wantReplay) {
		t.Fatal("re-encoded journal recovers to a different obs export than its canonical twin")
	}
}

// TestUndecodableOpFailsRecovery: an op record that is CRC-valid but
// does not decode fails New and ReplayFile with encoding/json's error
// for it, prefixed as recovery always has, applies nothing, and leaves
// the journal file as it was.
func TestUndecodableOpFailsRecovery(t *testing.T) {
	for _, c := range []struct{ payload, newErr, replayErr string }{
		{
			`{"op":"bill_epoch","seconds":`,
			"pocd: resume journal: op 3: unexpected end of JSON input",
			"op 3: unexpected end of JSON input",
		},
		{
			`{"op":"bill_epoch","seconds":"x"}`,
			"pocd: resume journal: op 3: json: cannot unmarshal string into Go struct field Op.seconds of type float64",
			"op 3: json: cannot unmarshal string into Go struct field Op.seconds of type float64",
		},
		{
			`{"op":"bill_epoch","seconds":3600}x`,
			"pocd: resume journal: op 3: invalid character 'x' after top-level value",
			"op 3: invalid character 'x' after top-level value",
		},
	} {
		path := writeJournal(t, [][]byte{
			[]byte(`{"op":"attach","name":"a","kind":"lmp"}`),
			[]byte(`{"op":"bill_epoch","seconds":60}`),
			[]byte(c.payload),
			[]byte(`{"op":"bill_epoch","seconds":60}`),
		})
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(Config{Build: buildRing, JournalPath: path, NoFsync: true, Now: (&fakeClock{}).now})
		if err == nil || err.Error() != c.newErr {
			t.Errorf("New on op %s: error %v, want %q", c.payload, err, c.newErr)
		}
		if _, _, err := ReplayFile(path, buildRing); err == nil || err.Error() != c.replayErr {
			t.Errorf("ReplayFile on op %s: error %v, want %q", c.payload, err, c.replayErr)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Errorf("failed recovery changed the journal (read error %v)", err)
		}
	}
}

// TestTrailingBytesRejected: a mutation body with anything but
// whitespace after its JSON value is a 400 that consumes no sequence
// number; a trailing newline is whitespace.
func TestTrailingBytesRejected(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"seconds":3600}garbage`,
		`{"seconds":3600}{"seconds":1}`,
		`{"seconds":3600} ]`,
	} {
		if code, resp := post(t, ts, "/v1/epoch", body); code != 400 {
			t.Fatalf("POST /v1/epoch %q: status %d (%s), want 400", body, code, resp)
		}
		if s.Seq() != 0 {
			t.Fatalf("POST /v1/epoch %q: journal seq %d, want 0", body, s.Seq())
		}
	}
	if code, resp := post(t, ts, "/v1/epoch", "{\"seconds\":3600}\n"); code != 200 || s.Seq() != 1 {
		t.Fatalf("POST /v1/epoch with a trailing newline: status %d (%s), seq %d", code, resp, s.Seq())
	}
}

// BenchmarkRecover recovers a journal of about 2 000 mixed ops on the
// ring: ns/op is the whole recovery, with the rebuild and the decode
// overlapped as in New. The rebuild-ms, decode-ms and apply-ms metrics
// time the three phases one after another, outside that measurement.
func BenchmarkRecover(b *testing.B) {
	s, err := New(Config{
		Spec:        []byte(`{"scenario":"ring"}`),
		Build:       buildRing,
		JournalPath: filepath.Join(b.TempDir(), "pocd.journal"),
		NoFsync:     true,
		Now:         (&fakeClock{}).now,
	})
	if err != nil {
		b.Fatal(err)
	}
	mustDo(b, s, &Op{Op: "attach", Name: "metro-lmp", Kind: "lmp", Router: 0})
	mustDo(b, s, &Op{Op: "attach", Name: "cloud-csp", Kind: "csp", Router: 2})
	mustDo(b, s, &Op{Op: "publish_qos", Name: "gold", Weight: 4, Price: 2.5, MaxLatencyKm: 1000})
	var live []int64
	for i := 0; s.Seq() < 2000; i++ {
		rep := s.do(&Op{Op: "start_flows", Flows: []FlowReq{
			{Src: "metro-lmp", Dst: "cloud-csp", Gbps: 0.5},
			{Src: "cloud-csp", Dst: "metro-lmp", Gbps: 0.25, Class: "gold"},
		}}, nil)
		if rep.err != nil {
			b.Fatal(rep.err)
		}
		live = append(live, rep.val.(startFlowsResult).IDs...)
		if len(live) > 40 {
			mustDo(b, s, &Op{Op: "stop_flows", IDs: live[:10]})
			live = live[10:]
		}
		switch i % 25 {
		case 0:
			mustDo(b, s, &Op{Op: "bill_epoch", Seconds: 3600})
		case 12:
			mustDo(b, s, &Op{Op: "chaos", Kind: "cut-link", Link: 2})
		case 13:
			mustDo(b, s, &Op{Op: "chaos", Kind: "repair-link", Link: 2})
		}
	}
	path := s.cfg.JournalPath
	if err := s.Shutdown(); err != nil {
		b.Fatal(err)
	}
	var seqs []uint64
	var payloads [][]byte
	res, err := journal.Replay(path, func(seq uint64, p []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, p)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}

	var rebuild, decode, apply time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, replay, err := recoverState(path, nil, buildRing)
		if err != nil {
			b.Fatal(err)
		}
		if err := replay(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		t0 := time.Now()
		p, reg, err := buildRing(res.Spec)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		ops := make([]Op, len(payloads))
		if err := decodeOps(ops, seqs, payloads); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		st := &state{poc: p, reg: reg}
		for i := range ops {
			st.apply(&ops[i])
		}
		rebuild, decode, apply = rebuild+t1.Sub(t0), decode+t2.Sub(t1), apply+time.Since(t2)
		b.StartTimer()
	}
	perRun := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(float64(res.Ops), "ops")
	b.ReportMetric(perRun(rebuild), "rebuild-ms")
	b.ReportMetric(perRun(decode), "decode-ms")
	b.ReportMetric(perRun(apply), "apply-ms")
}
