package ratelimit

import (
	"fmt"
	"testing"
	"time"
)

// clockAt returns a deterministic instant s seconds past a fixed
// epoch — the injected-clock pattern: tests never read a real clock.
func clockAt(s float64) time.Time {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return base.Add(time.Duration(s * float64(time.Second)))
}

func TestBurstThenReject(t *testing.T) {
	l := New(Config{Rate: 1, Burst: 3})
	now := clockAt(0)
	for i := 0; i < 3; i++ {
		if !l.Allow("t1", now) {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	if l.Allow("t1", now) {
		t.Fatal("request beyond burst admitted")
	}
}

func TestRefill(t *testing.T) {
	l := New(Config{Rate: 2, Burst: 2})
	for i := 0; i < 2; i++ {
		l.Allow("t", clockAt(0))
	}
	if l.Allow("t", clockAt(0)) {
		t.Fatal("empty bucket admitted")
	}
	// 0.5s at 2 tokens/s refills exactly one token.
	if !l.Allow("t", clockAt(0.5)) {
		t.Fatal("refilled token rejected")
	}
	if l.Allow("t", clockAt(0.5)) {
		t.Fatal("second token admitted after single refill")
	}
	// Refill caps at Burst no matter how long the tenant was idle.
	if !l.Allow("t", clockAt(100)) || !l.Allow("t", clockAt(100)) {
		t.Fatal("burst after idle rejected")
	}
	if l.Allow("t", clockAt(100)) {
		t.Fatal("refill exceeded burst")
	}
}

func TestTenantsIndependent(t *testing.T) {
	l := New(Config{Rate: 1, Burst: 1})
	if !l.Allow("a", clockAt(0)) {
		t.Fatal("a rejected")
	}
	if !l.Allow("b", clockAt(0)) {
		t.Fatal("b throttled by a's bucket")
	}
	if l.Allow("a", clockAt(0)) {
		t.Fatal("a's second request admitted")
	}
}

func TestDisabled(t *testing.T) {
	l := New(Config{Rate: 0})
	for i := 0; i < 100; i++ {
		if !l.Allow("t", clockAt(0)) {
			t.Fatal("disabled limiter rejected")
		}
	}
	var nilL *Limiter
	if !nilL.Allow("t", clockAt(0)) {
		t.Fatal("nil limiter rejected")
	}
}

func TestMaxTenantsOverflowShared(t *testing.T) {
	l := New(Config{Rate: 1, Burst: 1})
	for i := 0; i < maxTenants; i++ {
		if !l.Allow(fmt.Sprint("t", i), clockAt(0)) {
			t.Fatalf("tracked tenant %d rejected", i)
		}
	}
	// a and b share the overflow bucket: a drains it, b is rejected.
	if !l.Allow("a", clockAt(0)) {
		t.Fatal("first overflow tenant rejected")
	}
	if l.Allow("b", clockAt(0)) {
		t.Fatal("overflow bucket not shared")
	}
	if l.Tenants() != maxTenants {
		t.Fatalf("tracked %d tenants, want %d", l.Tenants(), maxTenants)
	}
}

// TestRateBelowOneAdmits: with Rate 0.5 and the default Burst, the
// bucket still holds the one token a request costs, so requests one
// second apart are admitted every other second.
func TestRateBelowOneAdmits(t *testing.T) {
	l := New(Config{Rate: 0.5})
	for s := 0; s < 100; s++ {
		if got, want := l.Allow("t", clockAt(float64(s))), s%2 == 0; got != want {
			t.Fatalf("request at %d s admitted=%v, want %v", s, got, want)
		}
	}
}
