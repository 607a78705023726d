package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/public-option/poc/internal/chaos"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/pocd/journal"
)

// Op is one journaled mutation: the canonical unit of change in pocd.
// The HTTP layer decodes a request body into an Op, the single-writer
// loop marshals it back to canonical JSON for the journal (struct
// fields encode in declaration order, so the bytes are deterministic)
// and only then applies it. Replay decodes the same bytes into the
// same struct and calls the same apply — the whole crash-recovery
// argument rests on Op being the only way state changes.
//
// One struct covers every op kind; only the fields relevant to Kind
// are meaningful (mirroring chaos.Event). The zero value of every
// unused field is omitted from the journal encoding.
type Op struct {
	// Op selects the mutation:
	//   attach, start_flows, stop_flows, publish_qos, bill_epoch,
	//   chaos, recall, reauction
	Op string `json:"op"`

	// attach
	Name   string `json:"name,omitempty"`
	Kind   string `json:"kind,omitempty"` // "lmp" | "csp"; chaos event kind for op "chaos"
	Router int    `json:"router,omitempty"`

	// start_flows / stop_flows
	Flows []FlowReq `json:"flows,omitempty"`
	IDs   []int64   `json:"ids,omitempty"`

	// publish_qos
	Weight       float64 `json:"weight,omitempty"`
	Price        float64 `json:"price,omitempty"`
	MaxLatencyKm float64 `json:"max_latency_km,omitempty"`

	// bill_epoch
	Seconds float64 `json:"seconds,omitempty"`

	// chaos (Kind names the chaos.Event kind) / recall
	Link        int     `json:"link,omitempty"`
	BP          int     `json:"bp,omitempty"`
	Lat         float64 `json:"lat,omitempty"`
	Lon         float64 `json:"lon,omitempty"`
	RadiusKm    float64 `json:"radius_km,omitempty"`
	PenaltyRate float64 `json:"penalty_rate,omitempty"`
}

// FlowReq is one admission inside a start_flows op.
type FlowReq struct {
	Src   string  `json:"src"`
	Dst   string  `json:"dst"`
	Gbps  float64 `json:"gbps"`
	Class string  `json:"class,omitempty"` // "" = best-effort; else a published QoS class
}

// chaosKinds maps wire names to chaos event kinds.
var chaosKinds = map[string]chaos.Kind{
	"cut-link":          chaos.CutLink,
	"repair-link":       chaos.RepairLink,
	"cut-bp":            chaos.CutBP,
	"repair-bp":         chaos.RepairBP,
	"correlated-cut":    chaos.Correlated,
	"correlated-repair": chaos.RepairCorrelated,
}

// validate rejects malformed ops before they reach the writer queue —
// a 400 must never consume journal space or a sequence number. That
// includes the ops core refuses because they could overflow its ledger
// to ±Inf or NaN: an epoch over core.MaxEpochSeconds, a penalty rate
// over core.MaxPenaltyRate.
func (o *Op) validate() error {
	switch o.Op {
	case "attach":
		if o.Name == "" {
			return fmt.Errorf("attach: name required")
		}
		if o.Kind != "lmp" && o.Kind != "csp" {
			return fmt.Errorf("attach: kind must be lmp or csp")
		}
		if o.Router < 0 {
			return fmt.Errorf("attach: negative router")
		}
	case "start_flows":
		if len(o.Flows) == 0 {
			return fmt.Errorf("start_flows: no flows")
		}
		for i, f := range o.Flows {
			if f.Src == "" || f.Dst == "" {
				return fmt.Errorf("start_flows: flow %d needs src and dst", i)
			}
			if f.Gbps <= 0 {
				return fmt.Errorf("start_flows: flow %d needs positive gbps", i)
			}
		}
	case "stop_flows":
		if len(o.IDs) == 0 {
			return fmt.Errorf("stop_flows: no ids")
		}
	case "publish_qos":
		if o.Name == "" {
			return fmt.Errorf("publish_qos: name required")
		}
	case "bill_epoch":
		if o.Seconds <= 0 {
			return fmt.Errorf("bill_epoch: seconds must be positive")
		}
		if o.Seconds > core.MaxEpochSeconds {
			return fmt.Errorf("bill_epoch: seconds over the %v bound", core.MaxEpochSeconds)
		}
	case "chaos":
		if _, ok := chaosKinds[o.Kind]; !ok {
			return fmt.Errorf("chaos: unknown kind %q", o.Kind)
		}
	case "recall":
		if o.Link < 0 {
			return fmt.Errorf("recall: negative link")
		}
		if o.PenaltyRate < 0 {
			return fmt.Errorf("recall: negative penalty rate")
		}
		if o.PenaltyRate > core.MaxPenaltyRate {
			return fmt.Errorf("recall: penalty rate over the %v bound", core.MaxPenaltyRate)
		}
	case "reauction":
		// no fields
	default:
		return fmt.Errorf("unknown op %q", o.Op)
	}
	return nil
}

// state is everything the single-writer loop owns: the POC, its obs
// registry, the journal, and the op encoder with the buffer it reuses
// from op to op. New hands it to the writer goroutine and keeps no
// reference. ReplayFile's has no journal.
type state struct {
	poc *core.POC
	reg *obs.Registry

	jw    *journal.Writer
	opBuf bytes.Buffer
	opEnc *json.Encoder
}

// resolveClass maps a wire class name to a netsim class: empty or
// "best-effort" is the default class, anything else must be in the
// published catalog.
func (st *state) resolveClass(name string) (netsim.Class, bool) {
	if name == "" || name == netsim.BestEffort.Name {
		return netsim.BestEffort, true
	}
	for _, off := range st.poc.QoSCatalog() {
		if off.Class.Name == name {
			return off.Class, true
		}
	}
	return netsim.Class{}, false
}

// The results of the ops that have no report type of their own. Keep
// each struct's fields in sorted JSON key order: clients see the same
// key order a map would encode.
type (
	attachResult struct {
		Endpoint int `json:"endpoint"`
	}
	startFlowsResult struct {
		IDs []int64 `json:"ids"`
	}
	stopFlowsResult struct {
		Stopped int `json:"stopped"`
	}
	publishQoSResult struct {
		Published string `json:"published"`
	}
	chaosResult struct {
		ActedLinks []int `json:"acted_links"`
		MovedFlows int   `json:"moved_flows"`
	}
)

// apply executes one validated op against the state. It runs only on
// the writer goroutine, strictly after the op was journaled. Errors
// are deterministic outcomes (the same op against the same state
// fails the same way on replay), never partial applications of a
// different op.
func (st *state) apply(o *Op) (any, error) {
	switch o.Op {
	case "attach":
		var (
			id  netsim.EndpointID
			err error
		)
		if o.Kind == "lmp" {
			id, err = st.poc.AttachLMP(o.Name, o.Router, peering.Policy{})
		} else {
			id, err = st.poc.AttachCSP(o.Name, o.Router)
		}
		if err != nil {
			return nil, err
		}
		return attachResult{Endpoint: int(id)}, nil
	case "start_flows":
		reqs := make([]core.FlowRequest, len(o.Flows))
		ok := make([]bool, len(o.Flows))
		for i, f := range o.Flows {
			class, found := st.resolveClass(f.Class)
			if !found {
				// Unknown class degrades to a per-entry rejection
				// (id -1), matching StartFlows' per-entry semantics.
				continue
			}
			ok[i] = true
			reqs[i] = core.FlowRequest{Src: f.Src, Dst: f.Dst, Gbps: f.Gbps, Class: class}
		}
		ids, err := st.poc.StartFlows(reqs)
		if err != nil {
			return nil, err
		}
		out := make([]int64, len(ids))
		for i, id := range ids {
			if !ok[i] {
				out[i] = -1
				continue
			}
			out[i] = int64(id)
		}
		return startFlowsResult{IDs: out}, nil
	case "stop_flows":
		ids := make([]netsim.FlowID, len(o.IDs))
		for i, id := range o.IDs {
			ids[i] = netsim.FlowID(id)
		}
		return stopFlowsResult{Stopped: st.poc.StopFlows(ids)}, nil
	case "publish_qos":
		class := netsim.Class{Name: o.Name, Weight: o.Weight, Price: o.Price}
		if err := st.poc.PublishQoS(class, o.MaxLatencyKm); err != nil {
			return nil, err
		}
		return publishQoSResult{Published: o.Name}, nil
	case "bill_epoch":
		rep, err := st.poc.BillEpoch(o.Seconds)
		if err != nil {
			return nil, err
		}
		return rep, nil
	case "chaos":
		ev := chaos.Event{
			Kind: chaosKinds[o.Kind], Link: o.Link, BP: o.BP,
			Lat: o.Lat, Lon: o.Lon, RadiusKm: o.RadiusKm,
		}
		acted, moved, err := chaos.Inject(st.poc, ev)
		if err != nil {
			return nil, err
		}
		return chaosResult{ActedLinks: acted, MovedFlows: len(moved)}, nil
	case "recall":
		rep, err := st.poc.RecallLink(o.Link, o.PenaltyRate)
		if err != nil {
			return nil, err
		}
		return rep, nil
	case "reauction":
		rep, err := st.poc.Reauction(st.poc.TrafficMatrix())
		if err != nil {
			return nil, err
		}
		return rep, nil
	}
	return nil, fmt.Errorf("unknown op %q", o.Op)
}
