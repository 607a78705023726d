package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/pocd/journal"
)

// Handler returns the daemon's HTTP mux. Query endpoints run their
// read on the writer goroutine for a fresh, consistent view; when the
// writer is saturated (or the read times out in queue) they fall back
// to the last published snapshot and set X-Pocd-Degraded: stale so
// clients can tell. Mutations never degrade: a full queue sheds them
// with 503, an over-quota tenant gets 429, and nothing is journaled
// in either case.
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
	mux.HandleFunc("GET /v1/status", s.readHandler(func(st *state) (any, error) {
		return st.poc.Snapshot(), nil
	}, func(sn *Snapshot) any { return sn.State }))
	mux.HandleFunc("GET /v1/utilization", s.readHandler(func(st *state) (any, error) {
		return st.poc.Snapshot().Utilization, nil
	}, func(sn *Snapshot) any { return sn.State.Utilization }))
	mux.HandleFunc("GET /v1/qos", s.readHandler(func(st *state) (any, error) {
		return st.poc.QoSCatalog(), nil
	}, func(sn *Snapshot) any { return sn.State.QoS }))
	mux.HandleFunc("GET /v1/members", s.readHandler(func(st *state) (any, error) {
		return st.poc.Members(), nil
	}, func(sn *Snapshot) any { return sn.State.Members }))
	mux.HandleFunc("GET /v1/flows", func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r) {
			return
		}
		id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "flows: id query parameter required", http.StatusBadRequest)
			return
		}
		rep := s.do(nil, func(st *state) (any, error) {
			fl, ok := st.poc.FlowSnapshot(netsim.FlowID(id))
			if !ok {
				return nil, fmt.Errorf("flow %d not found", id)
			}
			return fl, nil
		})
		// Per-flow data is not in the snapshot; a saturated writer
		// means this query has no degraded fallback.
		s.writeReply(w, rep)
	})
	mux.HandleFunc("GET /v1/obs", func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r) {
			return
		}
		// The fresh read queues through the writer for ordering only:
		// the published snapshot is at jw.Seq() whenever a read is
		// dequeued. Fresh or degraded, the export renders here, on the
		// HTTP goroutine, once per snapshot.
		rep := s.do(nil, func(*state) (any, error) { return s.snap.Load(), nil })
		sn, _ := rep.val.(*Snapshot)
		if rep.err != nil {
			if sn = s.degradedSnapshot(); sn == nil {
				s.writeReply(w, rep)
				return
			}
			w.Header().Set("X-Pocd-Degraded", "stale")
		}
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

	return mux
}

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
		http.Error(w, "rate limit exceeded for tenant "+tenant, http.StatusTooManyRequests)
		return false
	}
	return true
}

// readHandler builds a GET handler that runs fresh on the writer and
// falls back to the degraded snapshot view when the writer is
// unreachable (queue full, draining, or queued past deadline).
func (s *Server) readHandler(read func(*state) (any, error), stale func(*Snapshot) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r) {
			return
		}
		rep := s.do(nil, read)
		if rep.err != nil {
			if sn := s.degradedSnapshot(); sn != nil {
				w.Header().Set("X-Pocd-Degraded", "stale")
				w.Header().Set("X-Pocd-Seq", strconv.FormatUint(sn.Seq, 10))
				writeJSON(w, http.StatusOK, stale(sn))
				return
			}
		}
		s.writeReply(w, rep)
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
				if !bodyTooLarge(w, err) {
					http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
				}
				return
			}
			// Decode stops after one value and would drop what follows
			// it unseen: anything but whitespace there is a 400 too.
			if _, err := dec.Token(); err != io.EOF {
				if !bodyTooLarge(w, err) {
					http.Error(w, "bad request body: data after the op", http.StatusBadRequest)
				}
				return
			}
		}
		op.Op = kind
		if err := op.validate(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.writeReply(w, s.do(op, nil))
	}
}

// bodyTooLarge answers 413 and reports true when a body read failed
// at its size bound.
func bodyTooLarge(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return false
	}
	http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
	return true
}

// writeReply encodes one writer reply as the HTTP response.
func (s *Server) writeReply(w http.ResponseWriter, rep reply) {
	if rep.err != nil {
		status := rep.status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, map[string]any{"error": rep.err.Error(), "seq": rep.seq})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"seq": rep.seq, "result": rep.val})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
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
	fmt.Fprintf(w, "pocd_degraded_reads_total %d\n", s.mDegraded.Load())
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
