// Package peering encodes the POC's terms of service from §3.4: the
// peering conditions every POC-connected LMP must satisfy, and an
// auditor that classifies an LMP's traffic-handling policy as
// compliant or violating.
//
// The conditions, quoted from the paper: a POC-connected LMP must not
//
//	(i)   differentially (in terms of priorities or blocking) treat
//	      incoming traffic based on the source or application, nor
//	      differentially treat outgoing traffic based on the
//	      destination or application;
//	(ii)  differentially provide CDN or other application-enhancement
//	      services based on the source (for incoming packets) or
//	      destination (for outgoing packets);
//	(iii) differentially allow third-parties to provide CDN or other
//	      application-enhancement services that only target a subset
//	      of traffic.
//
// Exceptions exist for security concerns (which may require blocking)
// and internal maintenance traffic (which may require priority).
// QoS offered openly at posted prices is explicitly not a violation:
// the paper distinguishes service discrimination (banned) from QoS
// (allowed).
package peering

import (
	"fmt"
	"strings"
)

// Direction distinguishes traffic entering or leaving the LMP.
type Direction int

const (
	// Incoming traffic arrives from the POC toward the LMP's
	// customers.
	Incoming Direction = iota
	// Outgoing traffic leaves the LMP toward the POC.
	Outgoing
)

func (d Direction) String() string {
	if d == Incoming {
		return "incoming"
	}
	return "outgoing"
}

// Selector matches a subset of traffic. Empty fields match
// everything; a selector with any non-empty field is "selective".
type Selector struct {
	Source      string // origin LMP/CSP name
	Destination string // destination LMP/CSP name
	Application string // e.g. "video", "voip"
}

// Selective reports whether the selector targets a strict subset of
// traffic.
func (s Selector) Selective() bool {
	return s.Source != "" || s.Destination != "" || s.Application != ""
}

func (s Selector) String() string {
	if !s.Selective() {
		return "all traffic"
	}
	var parts []string
	if s.Source != "" {
		parts = append(parts, "src="+s.Source)
	}
	if s.Destination != "" {
		parts = append(parts, "dst="+s.Destination)
	}
	if s.Application != "" {
		parts = append(parts, "app="+s.Application)
	}
	return strings.Join(parts, ",")
}

// Action is what a rule does to matched traffic.
type Action int

const (
	// Allow passes traffic unchanged.
	Allow Action = iota
	// Block drops matched traffic.
	Block
	// Prioritize gives matched traffic better-than-default service.
	Prioritize
	// Deprioritize gives matched traffic worse-than-default service.
	Deprioritize
)

func (a Action) String() string {
	switch a {
	case Allow:
		return "allow"
	case Block:
		return "block"
	case Prioritize:
		return "prioritize"
	case Deprioritize:
		return "deprioritize"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Justification is a rule's claimed exemption.
type Justification int

const (
	// None claims no exemption.
	None Justification = iota
	// Security covers blocking attack traffic (the paper's first
	// caveat). It justifies Block only.
	Security
	// Maintenance covers internal maintenance traffic needing
	// priority (the second caveat). It justifies Prioritize only,
	// and only for the LMP's own maintenance traffic.
	Maintenance
)

func (j Justification) String() string {
	switch j {
	case None:
		return "none"
	case Security:
		return "security"
	case Maintenance:
		return "maintenance"
	default:
		return fmt.Sprintf("Justification(%d)", int(j))
	}
}

// Rule is one traffic-handling rule in an LMP's policy.
type Rule struct {
	Direction Direction
	Match     Selector
	Action    Action
	Why       Justification
	// Internal marks traffic originated by the LMP itself (its own
	// management plane); required for the Maintenance exemption.
	Internal bool
}

// QoSClass is a quality-of-service tier the LMP sells. Open classes
// with posted prices are allowed; closed or unpriced ones are
// service discrimination.
type QoSClass struct {
	Name        string
	PostedPrice float64 // per month; must be > 0 and published
	OpenToAll   bool    // anyone may buy at the posted price
}

// CDNOffer is a CDN or application-enhancement service the LMP
// provides, or permission for a third party to install one.
type CDNOffer struct {
	Name       string
	ThirdParty bool     // true if a third party installs the service
	Target     Selector // which traffic the service enhances
	Fee        float64  // set fee; must be uniform (posted)
	OpenToAll  bool     // offered to every CSP/LMP on equal terms
}

// Policy is an LMP's complete traffic-handling declaration, the unit
// the POC audits.
type Policy struct {
	LMP       string
	Rules     []Rule
	QoS       []QoSClass
	CDNOffers []CDNOffer
}

// Condition identifies which terms-of-service clause a violation
// breaches.
type Condition int

const (
	// CondDifferentialTreatment is clause (i).
	CondDifferentialTreatment Condition = iota + 1
	// CondDifferentialCDN is clause (ii).
	CondDifferentialCDN
	// CondDifferentialThirdParty is clause (iii).
	CondDifferentialThirdParty
	// CondClosedQoS is the open-QoS requirement (§3.1: QoS must be
	// "openly offered" at posted prices).
	CondClosedQoS
)

func (c Condition) String() string {
	switch c {
	case CondDifferentialTreatment:
		return "(i) differential treatment"
	case CondDifferentialCDN:
		return "(ii) differential CDN service"
	case CondDifferentialThirdParty:
		return "(iii) differential third-party CDN"
	case CondClosedQoS:
		return "closed QoS"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Violation is one audited breach of the terms of service.
type Violation struct {
	LMP       string
	Condition Condition
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.LMP, v.Condition, v.Detail)
}

// Audit checks a policy against the peering conditions and returns
// every violation found (empty means compliant).
func Audit(p Policy) []Violation {
	var out []Violation
	add := func(c Condition, format string, args ...interface{}) {
		out = append(out, Violation{LMP: p.LMP, Condition: c, Detail: fmt.Sprintf(format, args...)})
	}

	for i, r := range p.Rules {
		if r.Action == Allow {
			continue
		}
		// Does the rule discriminate within the audited direction?
		selective := false
		switch r.Direction {
		case Incoming:
			selective = r.Match.Source != "" || r.Match.Application != ""
		case Outgoing:
			selective = r.Match.Destination != "" || r.Match.Application != ""
		}
		if !selective {
			// Uniform shaping of all traffic (e.g. global rate limits)
			// does not discriminate.
			continue
		}
		switch r.Why {
		case Security:
			if r.Action != Block {
				add(CondDifferentialTreatment,
					"rule %d claims security but action is %s (only block is covered)", i, r.Action)
			}
		case Maintenance:
			if r.Action != Prioritize || !r.Internal {
				add(CondDifferentialTreatment,
					"rule %d claims maintenance but is not internal prioritization", i)
			}
		default:
			add(CondDifferentialTreatment,
				"rule %d %ss %s traffic matching %s with no exemption",
				i, r.Action, r.Direction, r.Match)
		}
	}

	for i, q := range p.QoS {
		if !q.OpenToAll {
			add(CondClosedQoS, "QoS class %q (#%d) is not open to all", q.Name, i)
		}
		if q.PostedPrice <= 0 {
			add(CondClosedQoS, "QoS class %q (#%d) has no posted price", q.Name, i)
		}
	}

	for i, c := range p.CDNOffers {
		cond := CondDifferentialCDN
		if c.ThirdParty {
			cond = CondDifferentialThirdParty
		}
		if c.Target.Selective() {
			add(cond, "CDN offer %q (#%d) targets only %s", c.Name, i, c.Target)
		}
		if !c.OpenToAll {
			add(cond, "CDN offer %q (#%d) is not offered on equal terms", c.Name, i)
		}
	}
	return out
}
