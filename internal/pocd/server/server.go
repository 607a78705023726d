// Package server is pocd's control plane: a crash-recoverable,
// journaled single-writer service over one active POC.
//
// Every mutation funnels through one writer goroutine that owns the
// POC exclusively. The writer journals each op (length-prefixed,
// checksummed, fsynced) BEFORE applying it, so replaying the journal
// against a freshly built deployment reproduces the in-memory state —
// and the observability export — byte for byte. Reads either run on
// the writer (fresh, consistent) or, when the writer is saturated,
// degrade to the last published snapshot instead of queuing behind
// the backlog.
//
// The package never reads the wall clock (poclint's walltime analyzer
// enforces this for all of internal/): callers inject a clock via
// Config.Now, which keeps timeout decisions testable and keeps the
// replay path entirely clock-free.
package server

import (
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
	// QueueDepth bounds the writer queue; beyond it mutations shed
	// with 503 and reads degrade to snapshots. Default 64.
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

// Snapshot is the degraded-read unit: the state view and the captured
// obs registry as of one applied journal sequence.
type Snapshot struct {
	Seq   uint64        `json:"seq"`
	State core.Snapshot `json:"state"`

	obsExport func() ([]byte, error)
}

// ObsExport returns the poc-obs/v1 export bytes as of Seq. The capture
// is rendered on the first call, on the caller's goroutine, and every
// later call on the same snapshot returns those bytes (or that error).
func (s *Snapshot) ObsExport() ([]byte, error) { return s.obsExport() }

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

// Server is the pocd control plane over one deployment.
type Server struct {
	cfg     Config
	jw      *journal.Writer //lint:owner New
	st      *state          //lint:owner New
	limiter *ratelimit.Limiter

	queue      chan *request
	writerDone chan struct{}

	mu     sync.RWMutex // guards closed + enqueue vs close(queue)
	closed bool         //lint:owner Shutdown

	ready atomic.Bool
	snap  atomic.Pointer[Snapshot]

	// recovered is non-nil when New resumed an existing journal.
	recovered *journal.ReplayResult

	// Daemon-local metrics. These live OUTSIDE the journaled POC obs
	// registry on purpose: HTTP traffic accounting must not perturb
	// the replay-equality invariant of the obs export.
	mRequests    atomic.Int64
	mRateLimited atomic.Int64
	mShed        atomic.Int64
	mTimeouts    atomic.Int64
	mDegraded    atomic.Int64
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
	if _, err := os.Stat(cfg.JournalPath); err == nil {
		// Recover: rebuild the deployment from the header spec, then
		// resume (replaying ops and truncating any torn tail).
		st, apply, err := recoverState(cfg.JournalPath, cfg.Spec, cfg.Build)
		if err != nil {
			return nil, err
		}
		jw, res, err := journal.Resume(cfg.JournalPath, fsync, apply)
		if err != nil {
			return nil, fmt.Errorf("pocd: resume journal: %w", err)
		}
		s.st, s.jw, s.recovered = st, jw, res
		s.mApplied.Store(int64(res.Ops))
	} else {
		p, reg, err := cfg.Build(cfg.Spec)
		if err != nil {
			return nil, fmt.Errorf("pocd: build deployment: %w", err)
		}
		s.st = &state{poc: p, reg: reg}
		jw, err := journal.Create(cfg.JournalPath, cfg.Spec, fsync)
		if err != nil {
			return nil, fmt.Errorf("pocd: create journal: %w", err)
		}
		s.jw = jw
	}

	s.publish()
	s.ready.Store(true)
	go s.writer() //lint:allow floatorder the one writer goroutine; its folds are ordered by the journaled queue, not completion order
	return s, nil
}

// Recovered reports the replay result when New resumed an existing
// journal, nil for a fresh start.
func (s *Server) Recovered() *journal.ReplayResult { return s.recovered }

// Seq returns the last journaled sequence number.
func (s *Server) Seq() uint64 { return s.jw.Seq() }

// publish captures the current state as the read snapshot. Runs on
// the writer goroutine (or in New before the writer starts) and never
// renders: the cost is the registry's names, not its history, and the
// JSON is paid by the first /v1/obs read of this snapshot, if any.
func (s *Server) publish() {
	capture := s.st.reg.Capture()
	s.snap.Store(&Snapshot{
		Seq:   s.jw.Seq(),
		State: s.st.poc.Snapshot(),
		obsExport: sync.OnceValues(func() ([]byte, error) {
			s.mObsRenders.Add(1)
			return capture.JSON()
		}),
	})
}

// writer is the single goroutine that owns the POC. It drains the
// queue until Shutdown closes it, then exits; queued requests are
// always answered, never dropped.
func (s *Server) writer() {
	defer close(s.writerDone)
	for req := range s.queue {
		s.handle(req) //lint:allow floatorder receive order is journaled before each apply; replay reproduces it exactly
	}
}

func (s *Server) handle(req *request) {
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
		val, err := req.read(s.st)
		status := 0
		if err != nil {
			status = 404
		}
		req.reply <- reply{val: val, err: err, seq: s.jw.Seq(), status: status}
		return
	}

	if s.cfg.applyGate != nil {
		s.cfg.applyGate(req.op)
	}
	// Marshal AFTER the gate: the journal must carry exactly the op
	// that apply sees. A gate that rewrites the op would otherwise
	// journal the pre-rewrite bytes, and replay would rebuild a
	// different state than the live daemon held.
	payload, err := json.Marshal(req.op)
	if err != nil {
		req.reply <- reply{err: err, status: 500}
		return
	}
	seq, err := s.jw.Append(payload)
	if err != nil {
		// The journal is broken: applying now would diverge the
		// durable record from memory. Refuse the mutation.
		req.reply <- reply{err: fmt.Errorf("journal append: %w", err), status: 503}
		return
	}
	val, applyErr := s.st.apply(req.op)
	s.mApplied.Add(1)
	if applyErr != nil {
		s.mApplyErrors.Add(1)
	}
	// Publish even after an apply error — the op may have partially
	// acted (per-entry admissions) and the obs registry moved.
	s.publish()
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

// degradedSnapshot returns the last published snapshot for a read
// that could not reach the writer.
func (s *Server) degradedSnapshot() *Snapshot {
	s.mDegraded.Add(1)
	return s.snap.Load()
}

// recoverState reads the journal's header spec (a non-nil wantSpec
// must equal it) and builds the deployment from it. The returned
// callback applies one journaled op to that state: hand it to
// journal.Replay or journal.Resume.
func recoverState(path string, wantSpec []byte, build BuildFunc) (*state, func(seq uint64, payload []byte) error, error) {
	probe, err := journal.Replay(path, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("pocd: probe journal: %w", err)
	}
	if wantSpec != nil && string(wantSpec) != string(probe.Spec) {
		return nil, nil, fmt.Errorf("pocd: journal %s was recorded under a different deployment spec", path)
	}
	p, reg, err := build(probe.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("pocd: rebuild deployment: %w", err)
	}
	st := &state{poc: p, reg: reg}
	return st, func(seq uint64, payload []byte) error {
		var op Op
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("op %d: %w", seq, err)
		}
		// Apply errors were journaled as ops too; they fail the
		// same deterministic way here and are not replay errors.
		st.apply(&op)
		return nil
	}, nil
}

// ReplayFile rebuilds the deployment a journal describes and replays
// its surviving ops sequentially, without starting a daemon. It
// returns the replay result and the resulting obs export — the
// ground truth `pocd -replay` and the CI smoke job compare a live
// daemon's export against.
func ReplayFile(path string, build BuildFunc) (*journal.ReplayResult, []byte, error) {
	st, apply, err := recoverState(path, nil, build)
	if err != nil {
		return nil, nil, err
	}
	res, err := journal.Replay(path, apply)
	if err != nil {
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
// already admitted, then seals and closes the journal. After
// Shutdown, mutations and writer reads fail with errClosed (degraded
// reads keep working off the last snapshot). Safe to call once.
func (s *Server) Shutdown() error {
	s.BeginDrain()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.writerDone
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	<-s.writerDone
	// The writer has exited; the journal is single-owned again. Seal
	// marks a clean shutdown — recovery distinguishes "sealed" from
	// "crashed" and CI asserts on it.
	return s.jw.Seal()
}
