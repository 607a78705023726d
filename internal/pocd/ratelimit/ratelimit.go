// Package ratelimit is pocd's per-tenant token-bucket admission
// filter. Each tenant (an API key, a member name, a remote address —
// the daemon decides) gets an independent bucket refilled at Rate
// tokens per second up to Burst; a request costs one token, and a
// tenant with an empty bucket is rejected (HTTP 429 upstream) before
// its request can reach the writer queue, so one abusive client
// cannot starve the journal of everyone else's work.
//
// The limiter never samples the wall clock itself: the current time
// is injected per call by the caller (cmd/pocd passes time.Now; tests
// pass a fake). That keeps internal/ free of clock reads and makes
// every admission decision reproducible in tests.
package ratelimit

import (
	"sync"
	"time"
)

// Config tunes the per-tenant buckets.
type Config struct {
	// Rate is the steady-state refill in tokens (requests) per
	// second. Zero or negative disables limiting entirely.
	Rate float64
	// Burst is the bucket capacity (instantaneous headroom). Zero
	// defaults to max(Rate, 1): one second of headroom, and never less
	// than the one token a request costs. A Burst below 1 admits
	// nothing.
	Burst float64
}

// maxTenants bounds the tracked-bucket map as a memory guard against
// tenant-id churn attacks; once full, unknown tenants share one
// overflow bucket instead of allocating.
const maxTenants = 4096

// bucket is one tenant's token state.
type bucket struct {
	tokens float64
	last   time.Time
}

// Limiter admits or rejects requests per tenant. Safe for concurrent
// use.
type Limiter struct {
	cfg Config

	mu       sync.Mutex
	buckets  map[string]*bucket
	overflow bucket // shared by tenants beyond maxTenants
}

// New returns a limiter with the given tuning.
func New(cfg Config) *Limiter {
	if cfg.Burst <= 0 {
		cfg.Burst = max(cfg.Rate, 1)
	}
	return &Limiter{cfg: cfg, buckets: make(map[string]*bucket)}
}

// Allow reports whether tenant may proceed at the injected current
// time, consuming one token if so.
func (l *Limiter) Allow(tenant string, now time.Time) bool {
	if l == nil || l.cfg.Rate <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		if len(l.buckets) >= maxTenants {
			b = &l.overflow
		} else {
			b = &bucket{tokens: l.cfg.Burst, last: now}
			l.buckets[tenant] = b
		}
	}
	if b.last.IsZero() {
		b.tokens = l.cfg.Burst
		b.last = now
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.cfg.Rate
		if b.tokens > l.cfg.Burst {
			b.tokens = l.cfg.Burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tenants returns how many distinct buckets are tracked (telemetry).
func (l *Limiter) Tenants() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}
