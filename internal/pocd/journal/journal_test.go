package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeSession journals n ops ("op-0".."op-n-1") and returns the path.
func writeSession(t testing.TB, n int, seal bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "poc.journal")
	w, err := Create(path, []byte(`{"spec":"test"}`), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if seal {
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
	} else if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayOps returns the op payloads a replay of data yields, plus the
// result.
func replayOps(t *testing.T, data []byte) ([]string, *ReplayResult) {
	t.Helper()
	var ops []string
	res, err := replayBytes(data, func(seq uint64, payload []byte) error {
		ops = append(ops, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return ops, res
}

func TestRoundTrip(t *testing.T) {
	path := writeSession(t, 5, true)
	ops, res := replayOps(t, readFile(t, path))
	if len(ops) != 5 || !res.Sealed || res.TornBytes != 0 {
		t.Fatalf("ops=%d sealed=%v torn=%d", len(ops), res.Sealed, res.TornBytes)
	}
	if string(res.Spec) != `{"spec":"test"}` {
		t.Fatalf("spec %q", res.Spec)
	}
	for i, op := range ops {
		if op != fmt.Sprintf("op-%d", i) {
			t.Fatalf("op %d = %q", i, op)
		}
	}
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTruncationEveryByte is the journal-layer crash property: for a
// journal truncated at EVERY byte length, replay must recover exactly
// the ops whose records end at or before the cut — a well-formed
// prefix, monotone in the cut point, with the torn tail dropped and
// never a half-applied record.
func TestTruncationEveryByte(t *testing.T) {
	path := writeSession(t, 8, true)
	full := readFile(t, path)
	fullOps, fullRes := replayOps(t, full)
	if !fullRes.Sealed {
		t.Fatal("full journal not sealed")
	}

	prevOps := 0
	for cut := int64(len(Magic)); cut <= int64(len(full)); cut++ {
		// A cut inside record 0 leaves no valid header: that is a
		// hard "unrecoverable journal" error, not a torn tail.
		if cut < fullRes.ValidLen {
			if _, err := replayBytes(full[:cut], nil); err != nil {
				if cut >= headerEnd(t, full) {
					t.Fatalf("cut %d past the header errored: %v", cut, err)
				}
				continue
			}
		}
		ops, res := replayOps(t, full[:cut])
		if res.TornBytes != cut-res.ValidLen {
			t.Fatalf("cut %d: torn %d != %d", cut, res.TornBytes, cut-res.ValidLen)
		}
		// Prefix property: recovered ops are exactly the first k full ops.
		for i, op := range ops {
			if op != fullOps[i] {
				t.Fatalf("cut %d: op %d = %q, want %q", cut, i, op, fullOps[i])
			}
		}
		// Monotone: growing the cut never loses ops.
		if prevOps > len(ops) {
			t.Fatalf("cut %d: ops went backwards (%d -> %d)", cut, prevOps, len(ops))
		}
		prevOps = len(ops)
		// Sealed only when the seal record survives whole.
		if res.Sealed && cut != int64(len(full)) {
			t.Fatalf("cut %d: truncated journal reports sealed", cut)
		}
	}
}

// TestBitFlipDropsTail: corrupting any single byte of a record drops
// that record and everything after it, but never the records before.
// headerEnd returns the byte offset just past the header record.
func headerEnd(t *testing.T, full []byte) int64 {
	t.Helper()
	res, err := replayBytes(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	plen := int64(len(res.Spec))
	return int64(len(Magic)) + headerSize + plen
}

func TestBitFlipDropsTail(t *testing.T) {
	path := writeSession(t, 6, false)
	full := readFile(t, path)
	fullOps, _ := replayOps(t, full)
	for pos := len(Magic); pos < len(full); pos += 7 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		var ops []string
		res, err := replayBytes(mut, func(_ uint64, p []byte) error {
			ops = append(ops, string(p))
			return nil
		})
		if err != nil {
			// Header-record corruption is a hard error; acceptable.
			continue
		}
		if res.TornBytes == 0 && len(ops) != len(fullOps) {
			t.Fatalf("pos %d: silent corruption (%d ops, no torn bytes)", pos, len(ops))
		}
		for i, op := range ops {
			if op != fullOps[i] {
				t.Fatalf("pos %d: op %d changed to %q", pos, i, op)
			}
		}
	}
}

func TestResumeTruncatesTornTail(t *testing.T) {
	path := writeSession(t, 4, false)
	full := readFile(t, path)
	// Simulate a torn final write: chop 3 bytes off the last record.
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var ops []string
	res, err := Replay(path, func(_ uint64, p []byte) error {
		ops = append(ops, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Reopen(path, false, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || res.TornBytes == 0 {
		t.Fatalf("ops=%d torn=%d", len(ops), res.TornBytes)
	}
	// The file is now exactly the valid prefix; appends continue the
	// sequence and replay cleanly.
	if seq, err := w.Append([]byte("op-after-crash")); err != nil || seq != res.LastSeq+1 {
		t.Fatalf("append after resume: seq=%d err=%v", seq, err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	ops = nil
	res2, err := Replay(path, func(_ uint64, p []byte) error {
		ops = append(ops, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TornBytes != 0 || !res2.Sealed || len(ops) != 4 || ops[3] != "op-after-crash" {
		t.Fatalf("after resume: torn=%d sealed=%v ops=%v", res2.TornBytes, res2.Sealed, ops)
	}
}

func TestResumeAfterSealAppendsMidStreamSeal(t *testing.T) {
	path := writeSession(t, 2, true)
	res, err := Replay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Reopen(path, false, res)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sealed {
		t.Fatal("sealed journal not detected")
	}
	if _, err := w.Append([]byte("post-seal")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ops, res2 := replayOps(t, readFile(t, path))
	if res2.Sealed {
		t.Fatal("mid-stream seal must not mark the resumed journal sealed")
	}
	if len(ops) != 3 || ops[2] != "post-seal" {
		t.Fatalf("ops=%v", ops)
	}
}

func TestSealedWriterRejectsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("x")); err == nil {
		t.Fatal("append after seal accepted")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := replayBytes([]byte("not a journal"), nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := replayBytes(bytes.Repeat([]byte{0}, 100), nil); err == nil {
		t.Fatal("zero file accepted")
	}
}

// TestAppendErrorIsSticky: a failed append leaves a record of unknown
// durability and a file offset past a possibly torn frame, so the
// writer must refuse everything after it — even if the file would
// take writes again — rather than acknowledge ops the reader can
// never reach.
func TestAppendErrorIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path, []byte("spec"), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("op-0")); err != nil {
		t.Fatal(err)
	}
	good := w.f
	closed, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	w.f = closed
	_, first := w.Append([]byte("lost"))
	if first == nil {
		t.Fatal("append to a closed file succeeded")
	}
	w.f = good
	if _, err := w.Append([]byte("after")); err != first {
		t.Fatalf("append after a failed append: err = %v, want the first error %v", err, first)
	}
	if w.Seq() != 1 {
		t.Fatalf("seq = %d after failed appends, want 1", w.Seq())
	}
	if err := w.Seal(); err != first {
		t.Fatalf("seal after a failed append: err = %v, want the first error %v", err, first)
	}
	if err := good.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("seal left the file open (sync: %v)", err)
	}
	ops, res := replayOps(t, readFile(t, path))
	if len(ops) != 1 || ops[0] != "op-0" || res.Sealed || res.TornBytes != 0 {
		t.Fatalf("ops=%v sealed=%v torn=%d, want exactly op-0, unsealed, clean", ops, res.Sealed, res.TornBytes)
	}
}

// FuzzJournalReplay feeds arbitrary images to the reader. Whatever the
// bytes, it must not panic, must account for every byte as valid
// prefix or torn tail, must deliver ops in sequence order — with the
// seals, which take a sequence number each, they tile 1..LastSeq —
// and must read its own valid prefix back to the same result.
func FuzzJournalReplay(f *testing.F) {
	sealed := readFile(f, writeSession(f, 5, true))
	f.Add(sealed)

	path := writeSession(f, 2, true)
	res, err := Replay(path, nil)
	if err != nil {
		f.Fatal(err)
	}
	w, err := Reopen(path, false, res)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.Append([]byte("post-seal")); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(readFile(f, path))

	f.Add(sealed[:len(sealed)-3]) // torn final write
	for pos := len(Magic); pos < len(sealed); pos += 7 {
		mut := append([]byte(nil), sealed...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}

	type op struct {
		seq     uint64
		payload string
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []op
		collect := func(seq uint64, payload []byte) error {
			ops = append(ops, op{seq, string(payload)})
			return nil
		}
		res, err := replayBytes(data, collect)
		if err != nil {
			return // not a journal, or a record kind from the future
		}
		if res.ValidLen+res.TornBytes != int64(len(data)) {
			t.Fatalf("valid %d + torn %d != %d bytes", res.ValidLen, res.TornBytes, len(data))
		}
		if len(ops) != res.Ops {
			t.Fatalf("%d ops delivered, result says %d", len(ops), res.Ops)
		}
		last := uint64(0)
		for _, o := range ops {
			if o.seq <= last || o.seq > res.LastSeq {
				t.Fatalf("op seq %d after %d (last valid %d)", o.seq, last, res.LastSeq)
			}
			last = o.seq
		}
		if res.Sealed == (last == res.LastSeq) && res.LastSeq > 0 {
			t.Fatalf("sealed=%v but last op seq %d, last valid seq %d", res.Sealed, last, res.LastSeq)
		}

		first := ops
		ops = nil
		again, err := replayBytes(data[:res.ValidLen], collect)
		if err != nil {
			t.Fatalf("valid prefix does not replay: %v", err)
		}
		if again.TornBytes != 0 || again.ValidLen != res.ValidLen || again.LastSeq != res.LastSeq ||
			again.Sealed != res.Sealed || !bytes.Equal(again.Spec, res.Spec) {
			t.Fatalf("valid prefix replays to %+v, full image to %+v", again, res)
		}
		if len(ops) != len(first) {
			t.Fatalf("valid prefix delivers %d ops, full image %d", len(ops), len(first))
		}
		for i := range ops {
			if ops[i] != first[i] {
				t.Fatalf("op %d: prefix %+v, full image %+v", i, ops[i], first[i])
			}
		}
	})
}
