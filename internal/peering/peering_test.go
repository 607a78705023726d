package peering

import (
	"strings"
	"testing"
)

func TestCompliantPolicies(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
	}{
		{"empty", Policy{LMP: "lmp0"}},
		{"allow everything", Policy{LMP: "lmp0", Rules: []Rule{
			{Direction: Incoming, Action: Allow},
			{Direction: Incoming, Match: Selector{Source: "netflix"}, Action: Allow},
		}}},
		{"uniform shaping", Policy{LMP: "lmp0", Rules: []Rule{
			{Direction: Incoming, Action: Deprioritize}, // applies to all traffic
		}}},
		{"security block", Policy{LMP: "lmp0", Rules: []Rule{
			{Direction: Incoming, Match: Selector{Source: "botnet"}, Action: Block, Why: Security},
		}}},
		{"maintenance priority", Policy{LMP: "lmp0", Rules: []Rule{
			{Direction: Outgoing, Match: Selector{Application: "ops"}, Action: Prioritize, Why: Maintenance, Internal: true},
		}}},
		{"open posted QoS", Policy{LMP: "lmp0", QoS: []QoSClass{
			{Name: "gold", PostedPrice: 99, OpenToAll: true},
		}}},
		{"open CDN", Policy{LMP: "lmp0", CDNOffers: []CDNOffer{
			{Name: "edge-cache", Fee: 500, OpenToAll: true},
			{Name: "third-party-racks", ThirdParty: true, Fee: 300, OpenToAll: true},
		}}},
		{"incoming rule selecting on destination only", Policy{LMP: "lmp0", Rules: []Rule{
			// Destination selection on incoming traffic is the LMP
			// steering to its own customers — not source/app
			// discrimination under clause (i).
			{Direction: Incoming, Match: Selector{Destination: "enterprise-7"}, Action: Prioritize},
		}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if vs := Audit(c.p); len(vs) != 0 {
				t.Fatalf("unexpected violations: %v", vs)
			}
		})
	}
}

func TestViolations(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		want Condition
	}{
		{"block by source", Policy{LMP: "x", Rules: []Rule{
			{Direction: Incoming, Match: Selector{Source: "netflix"}, Action: Block},
		}}, CondDifferentialTreatment},
		{"deprioritize by app", Policy{LMP: "x", Rules: []Rule{
			{Direction: Incoming, Match: Selector{Application: "video"}, Action: Deprioritize},
		}}, CondDifferentialTreatment},
		{"outgoing by destination", Policy{LMP: "x", Rules: []Rule{
			{Direction: Outgoing, Match: Selector{Destination: "rival-lmp"}, Action: Deprioritize},
		}}, CondDifferentialTreatment},
		{"own content prioritized", Policy{LMP: "x", Rules: []Rule{
			// §2.5: an LMP must not give its own content better service.
			{Direction: Incoming, Match: Selector{Source: "x-streaming"}, Action: Prioritize},
		}}, CondDifferentialTreatment},
		{"security claimed for prioritization", Policy{LMP: "x", Rules: []Rule{
			{Direction: Incoming, Match: Selector{Source: "partner"}, Action: Prioritize, Why: Security},
		}}, CondDifferentialTreatment},
		{"maintenance claimed for external traffic", Policy{LMP: "x", Rules: []Rule{
			{Direction: Incoming, Match: Selector{Application: "ops"}, Action: Prioritize, Why: Maintenance, Internal: false},
		}}, CondDifferentialTreatment},
		{"maintenance claimed for block", Policy{LMP: "x", Rules: []Rule{
			{Direction: Incoming, Match: Selector{Application: "ops"}, Action: Block, Why: Maintenance, Internal: true},
		}}, CondDifferentialTreatment},
		{"closed QoS", Policy{LMP: "x", QoS: []QoSClass{
			{Name: "vip", PostedPrice: 10, OpenToAll: false},
		}}, CondClosedQoS},
		{"unpriced QoS", Policy{LMP: "x", QoS: []QoSClass{
			{Name: "secret", PostedPrice: 0, OpenToAll: true},
		}}, CondClosedQoS},
		{"CDN only for one CSP", Policy{LMP: "x", CDNOffers: []CDNOffer{
			{Name: "cache", Target: Selector{Source: "megaflix"}, Fee: 1, OpenToAll: true},
		}}, CondDifferentialCDN},
		{"CDN not on equal terms", Policy{LMP: "x", CDNOffers: []CDNOffer{
			{Name: "cache", Fee: 1, OpenToAll: false},
		}}, CondDifferentialCDN},
		{"third-party install only for megaflix", Policy{LMP: "x", CDNOffers: []CDNOffer{
			// The paper's example: allowing Netflix to install
			// services that enhance its traffic while disallowing
			// others.
			{Name: "racks", ThirdParty: true, Target: Selector{Source: "megaflix"}, Fee: 1, OpenToAll: true},
		}}, CondDifferentialThirdParty},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs := Audit(c.p)
			if len(vs) == 0 {
				t.Fatal("expected a violation")
			}
			found := false
			for _, v := range vs {
				if v.Condition == c.want {
					found = true
				}
				if v.LMP != "x" {
					t.Fatalf("violation names LMP %q", v.LMP)
				}
			}
			if !found {
				t.Fatalf("got %v, want condition %v", vs, c.want)
			}
		})
	}
}

func TestMultipleViolationsReported(t *testing.T) {
	p := Policy{
		LMP: "x",
		Rules: []Rule{
			{Direction: Incoming, Match: Selector{Source: "a"}, Action: Block},
			{Direction: Outgoing, Match: Selector{Destination: "b"}, Action: Deprioritize},
		},
		QoS:       []QoSClass{{Name: "vip", OpenToAll: false}},
		CDNOffers: []CDNOffer{{Name: "c", Target: Selector{Source: "a"}, OpenToAll: false}},
	}
	vs := Audit(p)
	if len(vs) < 5 { // 2 rules + 2 QoS issues (closed and unpriced) + 2 CDN issues... at least 5
		t.Fatalf("got %d violations: %v", len(vs), vs)
	}
}

func TestSelector(t *testing.T) {
	if (Selector{}).Selective() {
		t.Fatal("empty selector should match all")
	}
	if !(Selector{Application: "x"}).Selective() {
		t.Fatal("app selector is selective")
	}
	if got := (Selector{}).String(); got != "all traffic" {
		t.Fatalf("String = %q", got)
	}
	s := Selector{Source: "a", Destination: "b", Application: "c"}
	str := s.String()
	for _, want := range []string{"src=a", "dst=b", "app=c"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String = %q missing %q", str, want)
		}
	}
}

func TestStringers(t *testing.T) {
	if Incoming.String() != "incoming" || Outgoing.String() != "outgoing" {
		t.Fatal("Direction strings")
	}
	for a, want := range map[Action]string{
		Allow: "allow", Block: "block", Prioritize: "prioritize",
		Deprioritize: "deprioritize", Action(9): "Action(9)",
	} {
		if a.String() != want {
			t.Fatalf("Action %d = %q", int(a), a.String())
		}
	}
	for j, want := range map[Justification]string{
		None: "none", Security: "security", Maintenance: "maintenance",
		Justification(9): "Justification(9)",
	} {
		if j.String() != want {
			t.Fatalf("Justification %d = %q", int(j), j.String())
		}
	}
	for c := range map[Condition]bool{
		CondDifferentialTreatment: true, CondDifferentialCDN: true,
		CondDifferentialThirdParty: true, CondClosedQoS: true, Condition(9): true,
	} {
		if c.String() == "" {
			t.Fatal("empty Condition string")
		}
	}
	v := Violation{LMP: "l", Condition: CondClosedQoS, Detail: "d"}
	if !strings.Contains(v.String(), "closed QoS") {
		t.Fatalf("Violation.String = %q", v.String())
	}
}
