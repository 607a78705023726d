// Package chaos is the POC's fault-injection and recovery subsystem.
// It drives an active core.POC (and its netsim.Fabric) through an
// epoch clock under a fault schedule — scripted or generated from a
// seed — injecting link cuts, BP-wide outages, geographically
// correlated fiber cuts and flapping links, repairing them on
// schedule, and running a recovery-policy ladder (reroute → recall →
// reauction) whenever delivered traffic falls below a threshold. The
// paper's Constraint #2 promises the *provisioned* core survives any
// single path failure (§2.1); this package measures whether the
// *running* core actually does, as a delivered-fraction timeline.
//
// Everything is deterministic: the same schedule (or seed) against
// the same POC produces a byte-identical survivability report,
// regardless of auction worker counts.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind enumerates fault-schedule event types.
type Kind int

const (
	// CutLink fails one logical link.
	CutLink Kind = iota
	// RepairLink restores one logical link.
	RepairLink
	// CutBP fails every selected link leased from one BP — the
	// Constraint-#2 planning case realized at runtime.
	CutBP
	// RepairBP restores every failed link of one BP.
	RepairBP
	// Correlated fails every selected link with an endpoint router
	// within RadiusKm of (Lat, Lon) — a fiber cut or a disaster at a
	// colocation site.
	Correlated
	// RepairCorrelated restores the links a matching Correlated event
	// cut (same center and radius).
	RepairCorrelated
)

func (k Kind) String() string {
	switch k {
	case CutLink:
		return "cut-link"
	case RepairLink:
		return "repair-link"
	case CutBP:
		return "cut-bp"
	case RepairBP:
		return "repair-bp"
	case Correlated:
		return "correlated-cut"
	case RepairCorrelated:
		return "correlated-repair"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault or repair. Only the fields relevant to
// its Kind are meaningful: Link for CutLink/RepairLink, BP for
// CutBP/RepairBP, and Lat/Lon/RadiusKm for the correlated kinds.
type Event struct {
	Epoch              int
	Kind               Kind
	Link               int
	BP                 int
	Lat, Lon, RadiusKm float64
}

func (e Event) String() string {
	switch e.Kind {
	case CutLink, RepairLink:
		return fmt.Sprintf("%s %d", e.Kind, e.Link)
	case CutBP, RepairBP:
		return fmt.Sprintf("%s %d", e.Kind, e.BP)
	default:
		return fmt.Sprintf("%s (%.2f,%.2f) r=%.0fkm", e.Kind, e.Lat, e.Lon, e.RadiusKm)
	}
}

// Schedule is an ordered fault script over the epoch clock.
type Schedule struct {
	Events []Event
}

// Add appends an event. Events may be added in any order; At sorts.
func (s *Schedule) Add(ev Event) { s.Events = append(s.Events, ev) }

// Merge appends every event of another schedule.
func (s *Schedule) Merge(o Schedule) { s.Events = append(s.Events, o.Events...) }

// Horizon returns one past the last scheduled epoch — the minimum
// number of epochs to run to play the whole script.
func (s *Schedule) Horizon() int {
	h := 0
	for _, ev := range s.Events {
		if ev.Epoch+1 > h {
			h = ev.Epoch + 1
		}
	}
	return h
}

// At returns the events scheduled for one epoch in deterministic
// order: repairs before cuts (a link that flaps within one epoch ends
// it down), then by kind, link, BP.
func (s *Schedule) At(epoch int) []Event {
	var out []Event
	for _, ev := range s.Events {
		if ev.Epoch == epoch {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := isRepair(out[i].Kind), isRepair(out[j].Kind)
		if ri != rj {
			return ri
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Link != out[j].Link {
			return out[i].Link < out[j].Link
		}
		return out[i].BP < out[j].BP
	})
	return out
}

func isRepair(k Kind) bool {
	return k == RepairLink || k == RepairBP || k == RepairCorrelated
}

// Validate rejects schedules no engine run could apply sanely.
func (s *Schedule) Validate() error {
	for _, ev := range s.Events {
		if ev.Epoch < 0 {
			return fmt.Errorf("chaos: event %v at negative epoch %d", ev, ev.Epoch)
		}
		switch ev.Kind {
		case CutLink, RepairLink, CutBP, RepairBP:
		case Correlated, RepairCorrelated:
			if ev.RadiusKm < 0 || math.IsNaN(ev.RadiusKm) ||
				math.IsNaN(ev.Lat) || math.IsNaN(ev.Lon) {
				return fmt.Errorf("chaos: invalid correlated event %v", ev)
			}
		default:
			return fmt.Errorf("chaos: unknown event kind %d", int(ev.Kind))
		}
	}
	return nil
}

// SingleBPOutage scripts the paper's headline survivability question:
// one BP goes dark at failEpoch and comes back at repairEpoch.
func SingleBPOutage(bp, failEpoch, repairEpoch int) Schedule {
	var s Schedule
	s.Add(Event{Epoch: failEpoch, Kind: CutBP, BP: bp})
	if repairEpoch > failEpoch {
		s.Add(Event{Epoch: repairEpoch, Kind: RepairBP, BP: bp})
	}
	return s
}

// FlappingLink scripts a link that cuts at start and then alternates
// down/up: down for downEpochs, up for upEpochs, for the given number
// of cut-repair cycles. This is the schedule that tries to thrash the
// auction; the recovery backoff exists to survive it.
func FlappingLink(link, start, downEpochs, upEpochs, cycles int) Schedule {
	if downEpochs < 1 {
		downEpochs = 1
	}
	if upEpochs < 1 {
		upEpochs = 1
	}
	var s Schedule
	e := start
	for c := 0; c < cycles; c++ {
		s.Add(Event{Epoch: e, Kind: CutLink, Link: link})
		s.Add(Event{Epoch: e + downEpochs, Kind: RepairLink, Link: link})
		e += downEpochs + upEpochs
	}
	return s
}

// Random generates a seeded stochastic schedule over the given
// candidate links: each epoch, each healthy link fails independently
// with probability failProb; a failed link repairs after a geometric
// number of epochs with the given mean time to repair (≥ 1 epoch).
// The same seed always yields the same schedule.
func Random(seed int64, horizon int, links []int, failProb, mttrEpochs float64) Schedule {
	var s Schedule
	if horizon <= 0 || len(links) == 0 || failProb <= 0 {
		return s
	}
	if mttrEpochs < 1 {
		mttrEpochs = 1
	}
	sorted := append([]int(nil), links...)
	sort.Ints(sorted)
	rng := rand.New(rand.NewSource(seed))
	downUntil := map[int]int{} // link -> first epoch it is up again
	for e := 0; e < horizon; e++ {
		for _, l := range sorted {
			if until, down := downUntil[l]; down {
				if e >= until {
					s.Add(Event{Epoch: e, Kind: RepairLink, Link: l})
					delete(downUntil, l)
				} else {
					continue
				}
			}
			if rng.Float64() < failProb {
				repair := e + 1 + int(rng.ExpFloat64()*(mttrEpochs-1)+0.5)
				s.Add(Event{Epoch: e, Kind: CutLink, Link: l})
				downUntil[l] = repair
			}
		}
	}
	return s
}
