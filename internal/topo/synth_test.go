package topo

import (
	"reflect"
	"testing"
)

func TestSynthDeterministicAndExact(t *testing.T) {
	for _, links := range []int{200, 600, 1200} {
		cfg := DefaultSynthConfig()
		cfg.Links = links
		cfg.Routers = links / 4
		a := GenerateSynth(cfg)
		b := GenerateSynth(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("links=%d: same config produced different instances", links)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("links=%d: fingerprints differ on equal instances", links)
		}
		if len(a.P.Links) != links {
			t.Fatalf("links=%d: generated %d links", links, len(a.P.Links))
		}
		if len(a.P.Routers) != cfg.Routers || len(a.Region) != cfg.Routers {
			t.Fatalf("links=%d: router/region count off", links)
		}
		if len(a.P.BPs) != cfg.Regions*cfg.BPsPerRegion {
			t.Fatalf("links=%d: %d BPs for %d regions x %d", links, len(a.P.BPs), cfg.Regions, cfg.BPsPerRegion)
		}
		cfg.Seed++
		if GenerateSynth(cfg).Fingerprint() == a.Fingerprint() {
			t.Fatalf("links=%d: different seeds collided", links)
		}
	}
}

func TestSynthRegionalStructure(t *testing.T) {
	cfg := DefaultSynthConfig()
	s := GenerateSynth(cfg)
	if len(s.Border) != 0 {
		t.Fatalf("default config is border-free, got %v", s.Border)
	}
	for _, l := range s.P.Links {
		if s.Region[l.A] != s.Region[l.B] {
			t.Fatalf("link %d crosses regions without Border config", l.ID)
		}
		if l.BP/cfg.BPsPerRegion != s.Region[l.A] {
			t.Fatalf("link %d owned by BP %d outside region %d", l.ID, l.BP, s.Region[l.A])
		}
	}
	for _, d := range s.Demand {
		if s.Region[d.A] != s.Region[d.B] {
			t.Fatalf("demand %d->%d crosses regions", d.A, d.B)
		}
		if d.A == d.B || d.Gbps <= 0 {
			t.Fatalf("degenerate demand %+v", d)
		}
	}
	if len(s.Demand) != cfg.Regions*cfg.Pairs {
		t.Fatalf("demand count %d != regions*pairs", len(s.Demand))
	}

	cfg.Border = cfg.Regions
	cfg.Links += cfg.Border
	sb := GenerateSynth(cfg)
	if len(sb.Border) != cfg.Border || len(sb.P.Links) != cfg.Links {
		t.Fatalf("border config: %d border / %d total", len(sb.Border), len(sb.P.Links))
	}
	for _, id := range sb.Border {
		l := sb.P.Links[id]
		if sb.Region[l.A] == sb.Region[l.B] {
			t.Fatalf("border link %d does not cross regions", id)
		}
	}
}

// TestSynthFingerprintFullEndpoints: two instances that differ only in
// one link's endpoint, 1 vs 257, fingerprint differently although the
// packed identity word keeps 8 bits of it.
func TestSynthFingerprintFullEndpoints(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Routers, cfg.Links = 300, 600
	a, b := GenerateSynth(cfg), GenerateSynth(cfg)
	a.P.Links[0].B, b.P.Links[0].B = 1, 257
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("instances differing only in endpoint 1 vs 257 share a fingerprint")
	}
}
