package provision

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/public-option/poc/internal/linkset"
)

// Cache persistence: Save/Load serialize the FeasibilityCache's
// canonical-key table to a CRC-framed file so sweep re-runs and warm CI
// start hot. The format mirrors the pocd journal's framing discipline:
//
//	magic   "pocfcache/v1\n"
//	frame   len(u32 LE) ∥ kind(u8) ∥ crc(u32 LE, IEEE over payload) ∥ payload
//
// Every payload starts with uvarint(len(key)) ∥ key, and the frame kind
// restates the entry kind the key's leading byte already gives.
//
// kind 1 (check entry) continues:
//
//	flags(u8: bit0 feasible, bit1 has-core)
//	∥ Float64bits(Unplaced)(u64 LE) ∥ Float64bits(MaxUtilization)(u64 LE)
//	∥ uvarint(Paths) ∥ uvarint(Moves)
//	∥ [has-core: uvarint(words) ∥ words(u64 LE each)]
//
// kind 3 (winner-determination entry, see FeasibilityCache.Determined)
// continues:
//
//	uvarint(checks) ∥ uvarint(words) ∥ words(u64 LE each)
//
// Kind 2 is retired: it held a memoized pass-3 shave under a 0xff key.
// Load stops at such a frame as at any frame whose kind disagrees with
// its key's. 0xff keys sort last, so in a file written while kind 2
// existed they only ever sit at the tail, and the load keeps every
// check and determination before them.
//
// Save iterates keys in sorted order — check entries first, then
// determination entries (0xfe-prefixed) — so saving the same contents
// always produces the same bytes. Load verifies the magic, then stops
// quietly at the first torn or corrupt frame (a crash mid-save loses
// the tail, never the run). Keys are content fingerprints (FNV-1a over
// matrix/network contents plus the raw include words), so a key written
// by one process hashes identically when another loads it.
//
// Entries loaded from a file replay exactly the checks that produced
// them, so a warm-started cache answers with the same bytes a cold one
// would compute. Callers that need obs exports unperturbed by warm
// starts already strip Obs on shared/external caches (see
// auction.Instance.Cache); private in-process caches are never
// persisted.

const cacheMagic = "pocfcache/v1\n"

// Frame kinds, by entry kind.
var cacheFrameKind = [numKinds]byte{kindCheck: 1, kindDetermination: 3}

// Save writes every resident entry to w in sorted-key order.
func (fc *FeasibilityCache) Save(w io.Writer) error {
	fc.mu.RLock()
	keys := make([]string, 0, len(fc.m))
	for k := range fc.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]cacheEntry, len(keys))
	for i, k := range keys {
		entries[i] = fc.m[k]
	}
	fc.mu.RUnlock()

	if _, err := io.WriteString(w, cacheMagic); err != nil {
		return err
	}
	var payload, frame []byte
	for i, k := range keys {
		payload = appendCachePayload(payload[:0], k, entries[i])
		frame = binary.LittleEndian.AppendUint32(frame[:0], uint32(len(payload)))
		frame = append(frame, cacheFrameKind[kindOf(k)])
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		frame = append(frame, payload...)
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

func appendWords(dst []byte, words []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(words)))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func appendCachePayload(dst []byte, key string, e cacheEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	if kindOf(key) == kindDetermination {
		dst = binary.AppendUvarint(dst, uint64(e.checks))
		return appendWords(dst, e.core.Words())
	}
	var flags byte
	if e.sum.Feasible {
		flags |= 1
	}
	if e.core != nil {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.sum.Unplaced))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.sum.MaxUtilization))
	dst = binary.AppendUvarint(dst, uint64(e.sum.Paths))
	dst = binary.AppendUvarint(dst, uint64(e.sum.Moves))
	if e.core != nil {
		dst = appendWords(dst, e.core.Words())
	}
	return dst
}

// Load reads entries from r into the cache (insert-win) and returns
// how many were loaded. A torn or corrupt tail ends the load silently —
// everything before it is kept. A bad magic is an error: the file is
// not a cache. The frames are read first and inserted together, under
// one lock, into a table sized once for them when the cache is empty.
func (fc *FeasibilityCache) Load(r io.Reader) (int, error) {
	frames, err := readFrames(r)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range frames {
		n += len(c)
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if len(fc.m) == 0 {
		fc.m = make(map[string]cacheEntry, n)
	}
	for _, c := range frames {
		for _, f := range c {
			fc.put(f.key, f.e)
		}
	}
	return n, nil
}

// frame is one decoded cache-file frame.
type frame struct {
	key string
	e   cacheEntry
}

// frameChunk is how many frames readFrames holds per allocation: the
// frames are kept in chunks, never copied into a grown slice.
const frameChunk = 128

// readFrames decodes the frames of a cache file up to its first torn
// or corrupt one, in chunks of frameChunk.
func readFrames(r io.Reader) ([][]frame, error) {
	magic := make([]byte, len(cacheMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("provision: cache file empty")
		}
		return nil, err
	}
	if string(magic) != cacheMagic {
		return nil, fmt.Errorf("provision: bad cache magic %q", magic)
	}
	var frames [][]frame
	header := make([]byte, 9)
	// The frame length is outside input: the buffer grows with the bytes
	// that actually arrive, never by what a header claims.
	var buf bytes.Buffer
	body := io.LimitedReader{R: r}
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			return frames, nil // clean EOF or torn header: stop
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		kind := header[4]
		crc := binary.LittleEndian.Uint32(header[5:9])
		if n > 1<<30 {
			return frames, nil
		}
		buf.Reset()
		body.N = int64(n)
		if _, err := buf.ReadFrom(&body); err != nil || body.N > 0 {
			return frames, nil // torn payload
		}
		payload := buf.Bytes()
		if crc32.ChecksumIEEE(payload) != crc {
			return frames, nil // corrupt frame
		}
		key, e, ok := parseCachePayload(payload)
		// A frame whose kind disagrees with its key's would file an entry
		// under a key of another kind: corrupt, like an unknown kind.
		if !ok || kind != cacheFrameKind[kindOf(key)] {
			return frames, nil
		}
		if len(frames) == 0 || len(frames[len(frames)-1]) == frameChunk {
			frames = append(frames, make([]frame, 0, frameChunk))
		}
		last := &frames[len(frames)-1]
		*last = append(*last, frame{string(key), e})
	}
}

// parseWords decodes uvarint(count) ∥ words into a set, straight into
// the words of a set sized for them. The count is outside input: it is
// checked against the bytes present before it sizes anything.
func parseWords(p []byte) (*linkset.Set, bool) {
	wc, n := binary.Uvarint(p)
	if n <= 0 || wc > uint64(len(p)-n)/8 {
		return nil, false
	}
	p = p[n:]
	set := linkset.New(int(wc) * 64)
	words := set.Words()
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	return set, true
}

// parseCachePayload decodes a frame's payload. The key aliases p.
func parseCachePayload(p []byte) ([]byte, cacheEntry, bool) {
	klen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < klen {
		return nil, cacheEntry{}, false
	}
	p = p[n:]
	key := p[:klen]
	p = p[klen:]
	var e cacheEntry
	var ok bool
	if kindOf(key) == kindDetermination {
		checks, n := binary.Uvarint(p)
		if n <= 0 || checks > math.MaxInt {
			return nil, cacheEntry{}, false
		}
		e.checks = int(checks)
		e.core, ok = parseWords(p[n:])
		return key, e, ok
	}
	if len(p) < 1+8+8 {
		return nil, cacheEntry{}, false
	}
	flags := p[0]
	e.sum.Feasible = flags&1 != 0
	e.sum.Unplaced = math.Float64frombits(binary.LittleEndian.Uint64(p[1:9]))
	e.sum.MaxUtilization = math.Float64frombits(binary.LittleEndian.Uint64(p[9:17]))
	p = p[17:]
	paths, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, cacheEntry{}, false
	}
	p = p[n:]
	moves, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, cacheEntry{}, false
	}
	e.sum.Paths = int(paths)
	e.sum.Moves = int(moves)
	if flags&2 != 0 {
		if e.core, ok = parseWords(p[n:]); !ok {
			return nil, cacheEntry{}, false
		}
	}
	return key, e, true
}

// fileBuffer sizes the buffered reader and writer of LoadFile and
// SaveFile: one syscall per 64 KiB instead of one or two per frame.
const fileBuffer = 64 << 10

// SaveFile writes the cache to path atomically (temp file + rename),
// so a crash mid-save leaves any previous file intact, and concurrent
// saves, each with its own temp file, leave one whole image. Frames go
// through a buffer; a failed flush fails the save before the sync, so
// a torn file is never renamed into place.
func (fc *FeasibilityCache) SaveFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	w := bufio.NewWriterSize(f, fileBuffer)
	err = fc.Save(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadFile loads path into the cache through a buffered reader; Load
// sees the same byte stream, torn tail included. A missing file is an
// empty warm start: (0, nil).
func (fc *FeasibilityCache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return fc.Load(bufio.NewReaderSize(f, fileBuffer))
}
