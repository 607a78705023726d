package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/pocd/journal"
)

// Handler returns the daemon's HTTP mux. Snapshot queries (status,
// utilization, qos, members, obs) answer from the snapshot published
// after the last applied op and never wait behind the writer's
// backlog; /v1/flows?id= reads on the writer. A full queue sheds
// writer requests with 503, an over-quota tenant gets 429, and nothing
// is journaled in either case.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)

	// Reads.
	mux.HandleFunc("GET /v1/status", s.snapshotHandler(func(sn *Snapshot) any { return sn.State }))
	mux.HandleFunc("GET /v1/utilization", s.snapshotHandler(func(sn *Snapshot) any { return sn.State.Utilization }))
	mux.HandleFunc("GET /v1/qos", s.snapshotHandler(func(sn *Snapshot) any { return sn.State.QoS }))
	mux.HandleFunc("GET /v1/members", s.snapshotHandler(func(sn *Snapshot) any { return sn.State.Members }))
	mux.HandleFunc("GET /v1/flows", func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r) {
			return
		}
		id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "flows: id query parameter required")
			return
		}
		// Per-flow data is not in the snapshot, so this query reads on
		// the writer and is shed with 503 when the queue is full.
		s.writeReply(w, s.do(nil, func(st *state) (any, error) {
			fl, ok := st.poc.FlowSnapshot(netsim.FlowID(id))
			if !ok {
				return nil, fmt.Errorf("flow %d not found", id)
			}
			return fl, nil
		}))
	})
	mux.HandleFunc("GET /v1/obs", func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r) {
			return
		}
		// The export renders here, on the HTTP goroutine, once per
		// snapshot: whichever reader of it asks first pays.
		sn := s.snap.Load()
		body, err := sn.ObsExport()
		if err != nil {
			s.writeReply(w, reply{err: fmt.Errorf("obs export: %w", err), seq: sn.Seq})
			return
		}
		w.Header().Set("X-Pocd-Seq", strconv.FormatUint(sn.Seq, 10))
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})

	// Mutations: the path fixes the op kind; the body carries the rest.
	mux.HandleFunc("POST /v1/flows", s.opHandler("start_flows"))
	mux.HandleFunc("POST /v1/flows/stop", s.opHandler("stop_flows"))
	mux.HandleFunc("POST /v1/members", s.opHandler("attach"))
	mux.HandleFunc("POST /v1/qos", s.opHandler("publish_qos"))
	mux.HandleFunc("POST /v1/epoch", s.opHandler("bill_epoch"))
	mux.HandleFunc("POST /v1/chaos", s.opHandler("chaos"))
	mux.HandleFunc("POST /v1/recall", s.opHandler("recall"))
	mux.HandleFunc("POST /v1/reauction", s.opHandler("reauction"))

	return s.v1Refusals(mux)
}

// v1Refusals answers what mux refuses on its own under /v1/ — a path
// with no route (404) or a route without the request's method (405,
// with mux's Allow header) — with the JSON error envelope at the
// published seq, like every error the handlers write. Every other
// request, /healthz, /readyz and /metrics among them, is mux's.
func (s *Server) v1Refusals(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			if h, pattern := mux.Handler(r); pattern == "" {
				rec := refusal{header: http.Header{}}
				h.ServeHTTP(&rec, r)
				switch rec.status {
				case http.StatusNotFound:
					s.writeError(w, rec.status, "no route for "+r.URL.Path)
					return
				case http.StatusMethodNotAllowed:
					w.Header()["Allow"] = rec.header["Allow"]
					s.writeError(w, rec.status, "method "+r.Method+" not allowed on "+r.URL.Path)
					return
				}
				// Anything else is a redirect to the cleaned path.
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// refusal records the status and headers mux's own refusal handler
// writes, and drops its text body.
type refusal struct {
	header http.Header
	status int
}

func (r *refusal) Header() http.Header         { return r.header }
func (r *refusal) Write(b []byte) (int, error) { return len(b), nil }
func (r *refusal) WriteHeader(status int)      { r.status = status }

// admit counts the request and applies the per-tenant token bucket.
// Tenants identify themselves with X-POC-Tenant; anonymous callers
// share one bucket.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	s.mRequests.Add(1)
	tenant := r.Header.Get("X-POC-Tenant")
	if tenant == "" {
		tenant = "anonymous"
	}
	if !s.limiter.Allow(tenant, s.cfg.Now()) {
		s.mRateLimited.Add(1)
		s.writeError(w, http.StatusTooManyRequests, "rate limit exceeded for tenant "+tenant)
		return false
	}
	return true
}

// snapshotHandler builds a GET handler that answers from the
// published snapshot on the HTTP goroutine and never enters the writer
// queue. The writer publishes after every applied op and before it
// replies, so the snapshot loaded here holds every acknowledged op and
// no unapplied one: the read is linearizable at sn.Seq.
func (s *Server) snapshotHandler(view func(*Snapshot) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r) {
			return
		}
		sn := s.snap.Load()
		s.writeReply(w, reply{val: view(sn), seq: sn.Seq})
	}
}

// opHandler builds a POST handler for one op kind: decode the body's
// one JSON value, validate (400 before any journal traffic), then run
// through the writer. A body longer than one journal record is refused
// with 413 before it is decoded to its end.
func (s *Server) opHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r) {
			return
		}
		op := &Op{}
		if r.ContentLength != 0 {
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, journal.MaxPayload))
			if err := dec.Decode(op); err != nil {
				if !s.bodyTooLarge(w, err) {
					s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
				}
				return
			}
			// Decode stops after one value and would drop what follows
			// it unseen: anything but whitespace there is a 400 too.
			if _, err := dec.Token(); err != io.EOF {
				if !s.bodyTooLarge(w, err) {
					s.writeError(w, http.StatusBadRequest, "bad request body: data after the op")
				}
				return
			}
		}
		op.Op = kind
		if err := op.validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.writeReply(w, s.do(op, nil))
	}
}

// bodyTooLarge answers 413 and reports true when a body read failed
// at its size bound.
func (s *Server) bodyTooLarge(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return false
	}
	s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	return true
}

// The response envelopes. Keep each struct's fields in sorted JSON key
// order: clients see the same key order a map would encode
// (TestReplyEnvelopeBytes pins both).
type (
	resultEnvelope struct {
		Result any    `json:"result"`
		Seq    uint64 `json:"seq"`
	}
	errorEnvelope struct {
		Error string `json:"error"`
		Seq   uint64 `json:"seq"`
	}
)

// writeReply encodes one writer reply as the HTTP response. A result
// that does not encode (encoding/json refuses ±Inf and NaN) answers
// 500 with the error envelope instead.
func (s *Server) writeReply(w http.ResponseWriter, rep reply) {
	if rep.err == nil {
		err := writeJSON(w, http.StatusOK, resultEnvelope{Result: rep.val, Seq: rep.seq})
		if err == nil {
			return
		}
		rep = reply{err: fmt.Errorf("encode reply: %w", err), seq: rep.seq}
	}
	status := rep.status
	if status == 0 {
		status = http.StatusInternalServerError
	}
	// A string and a sequence number always encode.
	writeJSON(w, status, errorEnvelope{Error: rep.err.Error(), Seq: rep.seq})
}

// writeError answers a request refused before the writer saw it (a
// bad body, a failed validation, an exceeded quota) with the error
// envelope at the published snapshot's seq: every /v1 error reads the
// same way, whether the HTTP layer or the writer refused it.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeReply(w, reply{err: errors.New(msg), seq: s.snap.Load().Seq, status: status})
}

// replyBuf is one reply's body buffer and the indenting encoder that
// writes into it. Pooled together, the pair keeps the encoder's indent
// buffer from reply to reply; a fresh encoder would allocate one per
// reply, the size of the body.
type replyBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxKeptBuf caps the encode buffers kept between uses, the pooled
// reply buffers and the writer's op buffer: one that grew past it for
// an outsized value is dropped rather than pinned.
const maxKeptBuf = 64 << 10

var replyBufs = sync.Pool{New: func() any {
	b := &replyBuf{}
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
}}

// writeJSON encodes v, indented, and only once it has encoded writes
// the status, the header and the body in one Write. A value that does
// not encode leaves w untouched and returns the error.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	b := replyBufs.Get().(*replyBuf)
	defer func() {
		if b.buf.Cap() <= maxKeptBuf {
			replyBufs.Put(b)
		}
	}()
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b.buf.Bytes())
	return nil
}

// handleMetrics serves daemon counters in Prometheus text exposition
// format. These counters are daemon-local atomics, deliberately
// outside the journaled obs registry (see Server doc).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	ready := 0
	if s.ready.Load() {
		ready = 1
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "pocd_ready %d\n", ready)
	fmt.Fprintf(w, "pocd_requests_total %d\n", s.mRequests.Load())
	fmt.Fprintf(w, "pocd_rate_limited_total %d\n", s.mRateLimited.Load())
	fmt.Fprintf(w, "pocd_shed_total %d\n", s.mShed.Load())
	fmt.Fprintf(w, "pocd_timeouts_total %d\n", s.mTimeouts.Load())
	fmt.Fprintf(w, "pocd_obs_renders_total %d\n", s.mObsRenders.Load())
	fmt.Fprintf(w, "pocd_ops_applied_total %d\n", s.mApplied.Load())
	fmt.Fprintf(w, "pocd_op_errors_total %d\n", s.mApplyErrors.Load())
	fmt.Fprintf(w, "pocd_queue_depth %d\n", len(s.queue))
	fmt.Fprintf(w, "pocd_journal_seq %d\n", sn.Seq)
	fmt.Fprintf(w, "pocd_flows %d\n", sn.State.Flows)
	fmt.Fprintf(w, "pocd_epochs %d\n", sn.State.Epochs)
	fmt.Fprintf(w, "pocd_failed_links %d\n", len(sn.State.FailedLinks))
	fmt.Fprintf(w, "pocd_rate_limit_tenants %d\n", s.limiter.Tenants())
}
