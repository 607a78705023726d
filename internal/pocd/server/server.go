// Package server is pocd's control plane: a crash-recoverable,
// journaled single-writer service over one active POC.
//
// Every mutation funnels through one writer goroutine that owns the
// POC exclusively. The writer journals each op (length-prefixed,
// checksummed, fsynced) BEFORE applying it, so replaying the journal
// against a freshly built deployment reproduces the in-memory state —
// and the observability export — byte for byte. After each applied op,
// and before replying, the writer publishes a snapshot; queries answer
// from it without queuing behind the backlog, and see every
// acknowledged op.
//
// The package never reads the wall clock: callers inject a clock via
// Config.Now, which keeps timeout decisions testable and keeps the
// replay path entirely clock-free. The server tests drive deadlines
// through a fake clock, so a wall-clock read in the writer fails them.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/pocd/journal"
	"github.com/public-option/poc/internal/pocd/ratelimit"
)

// BuildFunc constructs a deployed POC (auctioned and activated) plus
// its obs registry from an opaque deployment spec. It must be
// deterministic in the spec: recovery rebuilds the deployment from
// the journal header's spec and replays ops on top, and the recovered
// state is only byte-identical if the build is.
type BuildFunc func(spec []byte) (*core.POC, *obs.Registry, error)

// Config assembles a Server.
type Config struct {
	// Spec is the opaque deployment spec journaled in the header
	// record. When recovering an existing journal it may be nil (the
	// header's spec is used); if non-nil it must match the header.
	Spec []byte
	// Build turns a spec into an activated POC. Required.
	Build BuildFunc
	// JournalPath is the write-ahead journal file. Required.
	JournalPath string
	// NoFsync skips the fsync after each record (tests, throwaway runs).
	NoFsync bool
	// Now is the injected clock. Required (cmd/pocd passes time.Now).
	Now func() time.Time
	// QueueDepth bounds the writer queue; beyond it mutations and
	// /v1/flows reads shed with 503. Default 64.
	QueueDepth int
	// RequestTimeout bounds how stale a queued request may be when the
	// writer dequeues it. The deadline is stamped at enqueue and
	// checked BEFORE journaling: a request either times out whole or
	// applies whole, never mid-apply. Default 2s.
	RequestTimeout time.Duration
	// RateLimit is the per-tenant admission limiter (zero Rate = off).
	RateLimit ratelimit.Config

	// applyGate, when set, is called on the writer goroutine before
	// each apply — tests use it to hold the writer mid-queue.
	applyGate func(*Op)
}

// Snapshot is what every snapshot query answers from: the state view
// and the captured obs registry as of one applied journal sequence.
type Snapshot struct {
	Seq   uint64        `json:"seq"`
	State core.Snapshot `json:"state"`

	// Render-once state, allocated with the Snapshot: the capture, and
	// the bytes (or error) its first render gave.
	capture obs.Export
	renders *atomic.Int64 // the server's render count
	render  sync.Once
	export  []byte
	err     error
}

// ObsExport returns the poc-obs/v1 export bytes as of Seq. The capture
// is rendered on the first call, on the caller's goroutine, and every
// later call on the same snapshot returns those bytes (or that error).
func (s *Snapshot) ObsExport() ([]byte, error) {
	s.render.Do(func() {
		s.renders.Add(1)
		s.export, s.err = s.capture.JSON()
	})
	return s.export, s.err
}

type reply struct {
	val    any
	err    error
	seq    uint64
	status int // suggested HTTP status when err != nil
}

type request struct {
	op       *Op                       // mutation (nil for reads)
	read     func(*state) (any, error) // read closure (nil for mutations)
	deadline time.Time                 // zero = no deadline
	reply    chan reply
}

// errTimeout marks a request that expired in the queue before the
// writer reached it; the op was NOT journaled and NOT applied.
var errTimeout = errors.New("request deadline exceeded before apply")

// errShed marks a request refused because the writer queue was full.
var errShed = errors.New("writer queue full")

// errClosed marks a request refused because the server is draining.
var errClosed = errors.New("server shutting down")

// Server is the pocd control plane over one deployment. It holds no
// reference to the writer's state: a handler reaches that only through
// a read closure on the queue (do) or the published snapshot.
type Server struct {
	cfg     Config
	limiter *ratelimit.Limiter

	queue      chan *request
	writerDone chan struct{}

	// mu guards closed and orders enqueue against close(queue):
	// closed is written only in Shutdown, under mu.
	mu     sync.RWMutex
	closed bool

	ready atomic.Bool
	snap  atomic.Pointer[Snapshot]

	// recovered is non-nil when New resumed an existing journal.
	recovered *journal.ReplayResult
	// sealErr is the writer's Seal result, set before writerDone closes.
	sealErr error

	// Daemon-local metrics. These live OUTSIDE the journaled POC obs
	// registry on purpose: HTTP traffic accounting must not perturb
	// the replay-equality invariant of the obs export.
	mRequests    atomic.Int64
	mRateLimited atomic.Int64
	mShed        atomic.Int64
	mTimeouts    atomic.Int64
	mApplied     atomic.Int64
	mApplyErrors atomic.Int64
	mObsRenders  atomic.Int64
}

// New builds or recovers a server. If JournalPath exists the journal
// is replayed (torn tail truncated) and the deployment rebuilt from
// the header spec; otherwise a fresh journal is created from
// cfg.Spec. The writer goroutine is running when New returns.
func New(cfg Config) (*Server, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("pocd: Config.Build required")
	}
	if cfg.JournalPath == "" {
		return nil, fmt.Errorf("pocd: Config.JournalPath required")
	}
	if cfg.Now == nil {
		return nil, fmt.Errorf("pocd: Config.Now required (inject time.Now)")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	s := &Server{
		cfg:        cfg,
		limiter:    ratelimit.New(cfg.RateLimit),
		queue:      make(chan *request, cfg.QueueDepth),
		writerDone: make(chan struct{}),
	}

	fsync := !cfg.NoFsync
	var st *state
	if _, err := os.Stat(cfg.JournalPath); err == nil {
		// Recover: rebuild the deployment from the header spec, replay
		// the ops, then reopen the journal after its valid prefix
		// (truncating any torn tail).
		var replay func() error
		st, s.recovered, replay, err = recoverState(cfg.JournalPath, cfg.Spec, cfg.Build)
		if err != nil {
			return nil, err
		}
		if err := replay(); err != nil {
			return nil, fmt.Errorf("pocd: resume journal: %w", err)
		}
		if st.jw, err = journal.Reopen(cfg.JournalPath, fsync, s.recovered); err != nil {
			return nil, fmt.Errorf("pocd: resume journal: %w", err)
		}
		s.mApplied.Store(int64(s.recovered.Ops))
	} else {
		p, reg, err := cfg.Build(cfg.Spec)
		if err != nil {
			return nil, fmt.Errorf("pocd: build deployment: %w", err)
		}
		jw, err := journal.Create(cfg.JournalPath, cfg.Spec, fsync)
		if err != nil {
			return nil, fmt.Errorf("pocd: create journal: %w", err)
		}
		st = &state{poc: p, reg: reg, jw: jw}
	}
	st.opEnc = json.NewEncoder(&st.opBuf)

	s.publish(st)
	s.ready.Store(true)
	go s.writer(st)
	return s, nil
}

// Recovered reports the replay result when New resumed an existing
// journal, nil for a fresh start.
func (s *Server) Recovered() *journal.ReplayResult { return s.recovered }

// Seq returns the journal's seq as the published snapshot records it,
// so it is safe from any goroutine. After Shutdown it is still the seq
// from before the seal, not the seal record's.
func (s *Server) Seq() uint64 { return s.snap.Load().Seq }

// publish captures st as the read snapshot. Runs on the writer
// goroutine (or in New before the writer starts) and never renders:
// the cost is the names in the registry families written since the
// last publish, not the registry's history, and the JSON is paid by
// the first /v1/obs read of this snapshot, if any.
func (s *Server) publish(st *state) {
	s.snap.Store(&Snapshot{
		Seq:     st.jw.Seq(),
		State:   st.poc.Snapshot(),
		capture: st.reg.Capture(),
		renders: &s.mObsRenders,
	})
}

// writer is the single goroutine that owns st. It drains the queue
// until Shutdown closes it, then seals the journal and exits; queued
// requests are always answered, never dropped. The state's float
// folds follow the queue's receive order, which the journal records
// before each apply, so replay reproduces them exactly.
func (s *Server) writer(st *state) {
	defer close(s.writerDone)
	for req := range s.queue {
		s.handle(st, req)
	}
	// Seal marks a clean shutdown — recovery distinguishes "sealed"
	// from "crashed" and CI asserts on it.
	s.sealErr = st.jw.Seal()
}

func (s *Server) handle(st *state, req *request) {
	// Timeout decision happens HERE, before journaling. A request
	// that sat in the queue past its deadline dies whole; once an op
	// is journaled it is always applied. Replay therefore never sees
	// a half-decided op.
	if !req.deadline.IsZero() && s.cfg.Now().After(req.deadline) {
		s.mTimeouts.Add(1)
		req.reply <- reply{err: errTimeout, status: 503}
		return
	}
	if req.read != nil {
		val, err := req.read(st)
		status := 0
		if err != nil {
			status = 404
		}
		req.reply <- reply{val: val, err: err, seq: st.jw.Seq(), status: status}
		return
	}

	if s.cfg.applyGate != nil {
		s.cfg.applyGate(req.op)
	}
	// Encode AFTER the gate: the journal must carry exactly the op
	// that apply sees. A gate that rewrites the op would otherwise
	// journal the pre-rewrite bytes, and replay would rebuild a
	// different state than the live daemon held. The payload is
	// json.Marshal's bytes: the encoder adds only the newline trimmed
	// here, and Append copies the payload before opBuf is reused.
	// The encoder and its buffer are scratch that recovery never
	// reads, so writing them ahead of the append diverges nothing.
	st.opBuf.Reset()
	defer func() {
		if st.opBuf.Cap() > maxKeptBuf {
			st.opBuf = bytes.Buffer{} // an outsized op does not pin its buffer
		}
	}()
	if err := st.opEnc.Encode(req.op); err != nil {
		req.reply <- reply{err: err, status: 500}
		return
	}
	payload := bytes.TrimSuffix(st.opBuf.Bytes(), []byte{'\n'})
	// An op too large for one journal record is the request's fault,
	// not the journal's: refuse it here so the 503 below stays "the
	// journal is broken".
	if len(payload) > journal.MaxPayload {
		req.reply <- reply{err: fmt.Errorf("op encodes to %d bytes, over the %d-byte journal record bound", len(payload), journal.MaxPayload), status: 413}
		return
	}
	seq, err := st.jw.Append(payload)
	if err != nil {
		// The journal is broken: applying now would diverge the
		// durable record from memory. Refuse the mutation.
		req.reply <- reply{err: fmt.Errorf("journal append: %w", err), status: 503}
		return
	}
	val, applyErr := st.apply(req.op)
	s.mApplied.Add(1)
	if applyErr != nil {
		s.mApplyErrors.Add(1)
	}
	// Publish even after an apply error — the op may have partially
	// acted (per-entry admissions) and the obs registry moved.
	s.publish(st)
	status := 0
	if applyErr != nil {
		status = 422
	}
	req.reply <- reply{val: val, err: applyErr, seq: seq, status: status}
}

// enqueue hands a request to the writer, or fails fast with errShed
// (queue full) / errClosed (draining). The RLock pairs with
// Shutdown's Lock: once Shutdown closes the queue no enqueuer can be
// mid-send.
func (s *Server) enqueue(req *request) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errClosed
	}
	select {
	case s.queue <- req:
		return nil
	default:
		return errShed
	}
}

// do runs one request through the writer and waits for its reply.
func (s *Server) do(op *Op, read func(*state) (any, error)) reply {
	req := &request{
		op:       op,
		read:     read,
		deadline: s.cfg.Now().Add(s.cfg.RequestTimeout),
		reply:    make(chan reply, 1),
	}
	if err := s.enqueue(req); err != nil {
		if err == errShed {
			s.mShed.Add(1)
		}
		return reply{err: err, status: 503}
	}
	return <-req.reply
}

// recoverState reads the journal once, checks its header spec (a
// non-nil wantSpec must equal it) and builds the deployment from it.
// The op payloads decode on a second goroutine while the build runs
// here. The returned replay waits for that decode and applies the ops
// to the built state in seq order; it fails, applying nothing, if any
// op does not decode.
func recoverState(path string, wantSpec []byte, build BuildFunc) (*state, *journal.ReplayResult, func() error, error) {
	var seqs []uint64
	var payloads [][]byte
	res, err := journal.Replay(path, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, payload)
		return nil
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pocd: read journal: %w", err)
	}
	if wantSpec != nil && string(wantSpec) != string(res.Spec) {
		return nil, nil, nil, fmt.Errorf("pocd: journal %s was recorded under a different deployment spec", path)
	}
	ops := make([]Op, len(payloads))
	decoded := make(chan error, 1)
	go func() { decoded <- decodeOps(ops, seqs, payloads) }()
	p, reg, err := build(res.Spec)
	if err != nil {
		<-decoded
		return nil, nil, nil, fmt.Errorf("pocd: rebuild deployment: %w", err)
	}
	st := &state{poc: p, reg: reg}
	return st, res, func() error {
		if err := <-decoded; err != nil {
			return err
		}
		for i := range ops {
			// Apply errors were journaled as ops too; they fail the
			// same deterministic way here and are not replay errors.
			st.apply(&ops[i])
		}
		return nil
	}, nil
}

// decodeOps decodes payloads[i] into ops[i] and stops at the first
// payload that does not decode.
func decodeOps(ops []Op, seqs []uint64, payloads [][]byte) error {
	var d opDecoder
	for i, b := range payloads {
		if err := d.decode(b, &ops[i]); err != nil {
			return fmt.Errorf("op %d: %w", seqs[i], err)
		}
	}
	return nil
}

// ReplayFile rebuilds the deployment a journal describes and replays
// its surviving ops sequentially, without starting a daemon. It
// returns the replay result and the resulting obs export — the
// ground truth `pocd -replay` and the CI smoke job compare a live
// daemon's export against.
func ReplayFile(path string, build BuildFunc) (*journal.ReplayResult, []byte, error) {
	st, res, replay, err := recoverState(path, nil, build)
	if err != nil {
		return nil, nil, err
	}
	if err := replay(); err != nil {
		return nil, nil, err
	}
	export, err := st.reg.ExportJSON()
	if err != nil {
		return nil, nil, err
	}
	return res, export, nil
}

// BeginDrain flips /readyz to 503 so load balancers stop sending
// traffic while the HTTP server drains in-flight requests.
func (s *Server) BeginDrain() { s.ready.Store(false) }

// Shutdown drains the writer queue, applies and journals everything
// already admitted, and returns the error of the writer's final Seal.
// After Shutdown, mutations and /v1/flows reads fail with errClosed,
// and snapshot reads keep answering. Later calls return the same.
func (s *Server) Shutdown() error {
	s.BeginDrain()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	<-s.writerDone
	return s.sealErr
}
