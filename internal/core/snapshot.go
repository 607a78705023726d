package core

import (
	"sort"

	"github.com/public-option/poc/internal/netsim"
)

// This file is the POC's read-only snapshot surface: everything pocd
// serves on its query endpoints, gathered in one deterministic pass.
// pocd's single writer publishes a Snapshot after every applied op and
// before it replies, and every query answers from the latest one
// without queuing behind the writer, so a read sees every acknowledged
// op. A Snapshot's slices are read-only: it may share them with the
// POC and with other snapshots. Field order and slice ordering are
// deterministic — snapshots taken at the same journal sequence are
// byte-identical once JSON-encoded.

// Member is one attached LMP or CSP in a Snapshot.
type Member struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "LMP" | "CSP" | "external"
	Router    int    `json:"router"`
	Suspended bool   `json:"suspended,omitempty"`
}

// LinkUtil is one link's utilization in a Snapshot, as a slice sorted
// by link (not a map) so the JSON encoding orders numerically.
type LinkUtil = netsim.LinkUtil

// Snapshot is a consistent read-only view of an active POC.
type Snapshot struct {
	Epochs        int           `json:"epochs"`
	Flows         int           `json:"flows"`
	LeasedLinks   int           `json:"leased_links"`
	FailedLinks   []int         `json:"failed_links,omitempty"`
	RecalledLinks []int         `json:"recalled_links,omitempty"`
	Members       []Member      `json:"members,omitempty"`
	QoS           []QoSOffering `json:"qos,omitempty"`
	Utilization   []LinkUtil    `json:"utilization,omitempty"`
}

// memberList returns the attached members sorted by name (nil before
// Activate — members only exist on a fabric). The list is built once
// per change to the membership and shared: callers must not write
// into it.
func (p *POC) memberList() []Member {
	if p.fabric == nil {
		return nil
	}
	if p.members != nil {
		return p.members
	}
	names := make([]string, 0, len(p.endpoints))
	for name := range p.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Member, 0, len(names))
	for _, name := range names {
		m := Member{Name: name, Suspended: p.suspended[name]}
		if ep, err := p.fabric.Endpoint(p.endpoints[name]); err == nil {
			m.Kind = ep.Kind.String()
			m.Router = ep.Router
		}
		out = append(out, m)
	}
	p.members = out
	return out
}

// Snapshot captures the POC's queryable state in one pass. It is only
// meaningful on an active POC (before Activate it reports zeroes).
func (p *POC) Snapshot() Snapshot {
	s := Snapshot{Epochs: p.epochs, QoS: p.QoSCatalog()}
	if p.fabric == nil {
		return s
	}
	s.Flows = p.fabric.NumFlows()
	s.LeasedLinks = p.fabric.NumSelectedLinks()
	s.FailedLinks = p.fabric.FailedLinks()
	s.Members = p.memberList()
	recalled := make([]int, 0, len(p.recalled))
	for id := range p.recalled {
		recalled = append(recalled, id)
	}
	sort.Ints(recalled)
	s.RecalledLinks = recalled
	s.Utilization = p.fabric.Utilization()
	return s
}

// FlowSnapshot returns one admitted flow's route and allocation (the
// /v1/flows?id= query). The bool reports whether the ID is live.
func (p *POC) FlowSnapshot(id netsim.FlowID) (netsim.Flow, bool) {
	if p.fabric == nil {
		return netsim.Flow{}, false
	}
	fl, err := p.fabric.Flow(id)
	if err != nil {
		return netsim.Flow{}, false
	}
	return fl, true
}
