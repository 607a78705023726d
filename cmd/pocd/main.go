// Command pocd runs the POC control plane as a long-lived daemon: it
// activates a scenario deployment (auction → activation) and serves
// an HTTP/JSON API for admitting and releasing flows, querying
// routes, utilization and the QoS catalog, streaming the poc-obs/v1
// export, and triggering chaos events, recalls and reauctions.
//
// Every mutation is journaled (length-prefixed, checksummed, fsynced)
// before it is applied, so a daemon killed at any instant — including
// mid-write — restarts from the journal with state and observability
// export byte-identical to a clean sequential run of the surviving
// prefix. SIGTERM/SIGINT drain in-flight requests, seal the journal
// and exit 0; kill -9 leaves an unsealed journal the next start
// recovers automatically.
//
// Usage:
//
//	pocd -journal poc.journal [-listen :8080] [-scale 0.3] [-constraint 1]
//	pocd -journal poc.journal -replay [-export obs.json]
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/pocd/ratelimit"
	"github.com/public-option/poc/internal/pocd/server"
	"github.com/public-option/poc/internal/provision"
)

// deploySpec is the deployment spec journaled in the header record.
// It must marshal deterministically (struct fields, no maps): restart
// with the same flags produces the same bytes, and restart with
// different flags is refused instead of silently rebuilding a
// different network under the journaled ops.
type deploySpec struct {
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Constraint int     `json:"constraint"`
	Workers    int     `json:"workers"`
}

// build deploys the spec's scenario: generate, auction, activate.
// Deterministic in the spec — recovery depends on it.
func build(raw []byte) (*poc.Operator, *obs.Registry, error) {
	var spec deploySpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("bad deploy spec %q: %w", raw, err)
	}
	if spec.Constraint < 1 || spec.Constraint > 3 {
		return nil, nil, fmt.Errorf("constraint %d out of range", spec.Constraint)
	}
	reg := poc.NewObserver()
	s, err := poc.NewScenario(poc.ScenarioOptions{
		Scale: spec.Scale, Seed: spec.Seed, Workers: spec.Workers, Obs: reg,
	})
	if err != nil {
		return nil, nil, err
	}
	op, _, err := s.Deploy(provision.Constraint(spec.Constraint))
	if err != nil {
		return nil, nil, err
	}
	return op, reg, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pocd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the single exit path: every error funnels here so deferred
// cleanup (journal seal, listener close) always executes.
func run() error {
	journalPath := flag.String("journal", "", "write-ahead journal file (required)")
	listen := flag.String("listen", ":8080", "HTTP listen address")
	scale := flag.Float64("scale", 0.35, "scenario scale in (0,1]")
	seed := flag.Int64("seed", 0, "scenario zoo seed (0 = default)")
	constraint := flag.Int("constraint", 1, "auction constraint (1, 2 or 3)")
	workers := flag.Int("workers", 0, "auction worker goroutines (0 = auto)")
	queue := flag.Int("queue", 64, "writer queue depth before load-shedding")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request queue deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	rate := flag.Float64("rate", 0, "per-tenant requests/second (0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-tenant burst, at least 1 (0 = max(-rate, 1))")
	nofsync := flag.Bool("nofsync", false, "skip fsync after each journal record (unsafe)")
	replay := flag.Bool("replay", false, "replay the journal, print a summary, and exit")
	export := flag.String("export", "", "with -replay: write the replayed obs export to this file")
	flag.Parse()

	if *journalPath == "" {
		return fmt.Errorf("-journal is required")
	}
	// A NaN -rate would switch limiting off unseen, and a bucket that
	// holds less than the one token a request costs admits nothing.
	if math.IsNaN(*rate) || math.IsInf(*rate, 0) || math.IsNaN(*burst) || math.IsInf(*burst, 0) {
		return fmt.Errorf("-rate %v and -burst %v must be finite", *rate, *burst)
	}
	if *burst > 0 && *burst < 1 {
		return fmt.Errorf("-burst %v is below the one token a request costs", *burst)
	}

	if *replay {
		return runReplay(*journalPath, *export)
	}

	spec, err := json.Marshal(deploySpec{
		Scale: *scale, Seed: *seed, Constraint: *constraint, Workers: *workers,
	})
	if err != nil {
		return err
	}
	log.Printf("deploying spec %s", spec)
	s, err := server.New(server.Config{
		Spec:           spec,
		Build:          build,
		JournalPath:    *journalPath,
		NoFsync:        *nofsync,
		Now:            time.Now,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		RateLimit:      ratelimit.Config{Rate: *rate, Burst: *burst},
	})
	if err != nil {
		return err
	}
	if rec := s.Recovered(); rec != nil {
		log.Printf("recovered journal %s: %d ops, seq %d, sealed=%v, torn tail %d bytes dropped",
			*journalPath, rec.Ops, rec.LastSeq, rec.Sealed, rec.TornBytes)
	} else {
		log.Printf("created journal %s", *journalPath)
	}

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s", *listen)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		log.Printf("received %s: draining (deadline %s)", sig, *drain)
	case err := <-errCh:
		s.Shutdown()
		return fmt.Errorf("http server: %w", err)
	}

	// Graceful shutdown: stop advertising readiness, drain in-flight
	// HTTP requests, then drain the writer queue and seal the journal.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http drain: %v (continuing to seal journal)", err)
	}
	if err := s.Shutdown(); err != nil {
		return fmt.Errorf("seal journal: %w", err)
	}
	log.Printf("journal sealed after seq %d; bye", s.Seq())
	return nil
}

// runReplay rebuilds state from the journal and prints what a
// recovering daemon would see — CI compares the export hash from a
// live run against this ground truth.
func runReplay(path, exportPath string) error {
	res, exportBytes, err := server.ReplayFile(path, build)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(exportBytes)
	fmt.Printf("journal:  %s\n", path)
	fmt.Printf("ops:      %d (last seq %d)\n", res.Ops, res.LastSeq)
	fmt.Printf("sealed:   %v\n", res.Sealed)
	fmt.Printf("torn:     %d bytes dropped\n", res.TornBytes)
	fmt.Printf("obs_sha256: %x\n", sum)
	if exportPath != "" {
		if err := os.WriteFile(exportPath, exportBytes, 0o644); err != nil {
			return err
		}
		fmt.Printf("export:   wrote %s\n", exportPath)
	}
	return nil
}
