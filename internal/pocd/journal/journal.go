// Package journal is pocd's write-ahead log. Every mutation the
// daemon admits is appended here — length-prefixed, checksummed and
// sequence-numbered — *before* it is applied to the in-memory POC, so
// that replaying the journal through the same deterministic apply
// function reproduces the daemon's state byte for byte after a crash.
//
// The format is a magic line followed by framed records:
//
//	file   = magic ∥ record*
//	magic  = "pocjournal/v1\n"
//	record = len(u32) ∥ kind(u8) ∥ seq(u64) ∥ crc(u32) ∥ payload
//
// All integers are little-endian. len is the payload length alone;
// crc is CRC-32 (IEEE) over kind ∥ seq ∥ payload, so a corrupted
// header is caught even when the payload bytes survive. Record 0 is
// the header (kind 1) carrying the opaque deployment spec; ops are
// kind 2 with seq 1,2,…; a seal (kind 3, empty payload) marks a clean
// shutdown and may appear mid-stream when a sealed journal is resumed.
//
// Torn-tail semantics: a reader stops at the first record it cannot
// fully validate — short header, short payload, absurd length, CRC
// mismatch or a sequence break — and reports the byte offset of the
// last valid record boundary. Everything before that offset is a
// well-formed prefix; everything after is dropped, never half-applied.
// Resume truncates the file to that boundary before appending, so one
// torn write can never poison later records.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Magic is the file signature; it doubles as a format version.
const Magic = "pocjournal/v1\n"

// Record kinds.
const (
	// KindHeader is record 0: the opaque deployment spec.
	KindHeader = byte(1)
	// KindOp is one journaled mutation payload.
	KindOp = byte(2)
	// KindSeal marks a clean shutdown (empty payload).
	KindSeal = byte(3)
)

// headerSize is the fixed frame prefix: len(4) + kind(1) + seq(8) + crc(4).
const headerSize = 4 + 1 + 8 + 4

// MaxPayload bounds a single record; a length beyond it is treated as
// tail corruption, not an allocation request.
const MaxPayload = 1 << 26

// Writer appends records to a journal file.
type Writer struct {
	f     *os.File
	seq   uint64 // last sequence written
	fsync bool
	buf   []byte
	seal  bool // sealed and closed
	// err is the first failed write or sync. The record it hit is of
	// unknown durability and the file offset is past a possible torn
	// frame, so nothing may follow it: every later append returns err.
	err error
}

// Create writes a fresh journal at path: the magic plus the header
// record carrying spec. With fsync set, every append is synced to
// stable storage before Append returns.
func Create(path string, spec []byte, fsync bool) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, fsync: fsync}
	if _, err := f.WriteString(Magic); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.append(KindHeader, 0, spec); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Seq returns the last sequence number written.
func (w *Writer) Seq() uint64 { return w.seq }

// Append journals one op payload and returns its sequence number.
// When the writer was created with fsync, the record is on stable
// storage by the time Append returns — the caller may then apply the
// op knowing a crash cannot lose the record while keeping the effect.
// The first write or sync failure ends the journal: that Append and
// every later Append or Seal return the same error and write nothing.
func (w *Writer) Append(payload []byte) (uint64, error) {
	if w.seal {
		return 0, fmt.Errorf("journal: append to sealed journal")
	}
	seq := w.seq + 1
	if err := w.append(KindOp, seq, payload); err != nil {
		return 0, err
	}
	return seq, nil
}

// append frames and writes one record, updating w.seq on success. A
// write or sync failure is sticky (see Writer.err).
func (w *Writer) append(kind byte, seq uint64, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("journal: payload %d bytes exceeds max %d", len(payload), MaxPayload)
	}
	w.buf = appendRecord(w.buf[:0], kind, seq, payload)
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("journal: append: %w", err)
		return w.err
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
			return w.err
		}
	}
	w.seq = seq
	return nil
}

// appendRecord frames one record into buf.
func appendRecord(buf []byte, kind byte, seq uint64, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	crc := crc32.NewIEEE()
	crc.Write([]byte{kind})
	var seqb [8]byte
	binary.LittleEndian.PutUint64(seqb[:], seq)
	crc.Write(seqb[:])
	crc.Write(payload)
	buf = binary.LittleEndian.AppendUint32(buf, crc.Sum32())
	return append(buf, payload...)
}

// Seal appends the clean-shutdown marker, syncs and closes the file.
// A sealed journal replays identically to an unsealed one; the marker
// only records that the writer exited in good order. The file is
// synced and closed even when the marker cannot be written; the first
// error is returned.
func (w *Writer) Seal() error {
	if w.seal {
		return nil
	}
	err := w.append(KindSeal, w.seq+1, nil)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	w.seal = true
	return err
}

// Close syncs and closes without sealing (the journal will replay as
// a crash, which is always safe — Seal is strictly an upgrade).
func (w *Writer) Close() error {
	if w.seal {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ReplayResult describes what a read pass found.
type ReplayResult struct {
	// Spec is the header record's payload (the deployment spec).
	Spec []byte
	// Ops is the number of op records replayed.
	Ops int
	// LastSeq is the sequence of the last valid record (0 = header only).
	LastSeq uint64
	// Sealed reports whether the last valid record is a seal marker.
	Sealed bool
	// ValidLen is the byte offset of the end of the last valid
	// record — the well-formed prefix length.
	ValidLen int64
	// TornBytes is how many trailing bytes failed validation and were
	// dropped (0 for a clean journal).
	TornBytes int64
}

// Replay reads the journal at path, invoking fn for every op record
// in sequence order. A torn or corrupt tail is not an error: reading
// stops at the last valid boundary and the result reports the drop.
// fn errors abort the replay and are returned as-is. Each payload
// aliases the file image this call read, which nothing else holds: fn
// may keep it past the call but must not modify it.
func Replay(path string, fn func(seq uint64, payload []byte) error) (*ReplayResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return replayBytes(data, fn)
}

// replayBytes is Replay over an in-memory image.
func replayBytes(data []byte, fn func(seq uint64, payload []byte) error) (*ReplayResult, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("journal: bad magic (not a pocjournal/v1 file)")
	}
	res := &ReplayResult{ValidLen: int64(len(Magic))}
	off := len(Magic)
	wantSeq := uint64(0) // header first
	sawHeader := false
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break // clean end
		}
		if len(rest) < headerSize {
			break // torn frame prefix
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		kind := rest[4]
		seq := binary.LittleEndian.Uint64(rest[5:13])
		crc := binary.LittleEndian.Uint32(rest[13:17])
		if plen > MaxPayload {
			break // corrupt length
		}
		end := headerSize + int(plen)
		if len(rest) < end {
			break // torn payload
		}
		payload := rest[headerSize:end]
		h := crc32.NewIEEE()
		h.Write(rest[4:13]) // kind ∥ seq
		h.Write(payload)
		if h.Sum32() != crc {
			break // bit rot or torn overwrite
		}
		if !sawHeader {
			if kind != KindHeader || seq != 0 {
				return nil, fmt.Errorf("journal: first record is not the header")
			}
			res.Spec = append([]byte(nil), payload...)
			sawHeader = true
		} else {
			if seq != wantSeq+1 {
				break // sequence break: records lost or reordered
			}
			switch kind {
			case KindOp:
				if fn != nil {
					if err := fn(seq, payload); err != nil {
						return nil, err
					}
				}
				res.Ops++
				res.Sealed = false
			case KindSeal:
				res.Sealed = true
			default:
				return nil, fmt.Errorf("journal: unknown record kind %d at seq %d", kind, seq)
			}
			wantSeq = seq
		}
		off += end
		res.LastSeq = wantSeq
		res.ValidLen = int64(off)
	}
	if !sawHeader {
		return nil, fmt.Errorf("journal: no valid header record")
	}
	res.TornBytes = int64(len(data)) - res.ValidLen
	return res, nil
}

// Resume replays an existing journal (see Replay), truncates any torn
// tail so the file is exactly its valid prefix, and reopens it for
// appending with the sequence counter continuing where the last valid
// record left off. It is Replay followed by Reopen.
func Resume(path string, fsync bool, fn func(seq uint64, payload []byte) error) (*Writer, *ReplayResult, error) {
	res, err := Replay(path, fn)
	if err != nil {
		return nil, nil, err
	}
	w, err := Reopen(path, fsync, res)
	if err != nil {
		return nil, nil, err
	}
	return w, res, nil
}

// Reopen opens the journal at path for appending after the valid
// prefix res describes: it truncates the torn tail, if any, and
// continues the sequence from res.LastSeq. res must come from a Replay
// of path with no write to the file since, so that the prefix it
// measured is still the file's.
func Reopen(path string, fsync bool, res *ReplayResult) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if res.TornBytes > 0 {
		if err := f.Truncate(res.ValidLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(res.ValidLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, fsync: fsync, seq: res.LastSeq}, nil
}
