// Package market implements the paper's §3.2 payment structure: the
// entities of the POC economy (the nonprofit POC itself, bandwidth
// providers, last-mile providers, content/service providers and
// customers) and the ledger of who pays whom for what:
//
//   - the POC pays BPs for leased links and external ISPs for
//     general access;
//   - each LMP (and directly-attached CSP) pays the POC for access;
//   - each customer pays its LMP for access and pays CSPs for
//     services;
//   - each CSP using an LMP pays that LMP for access.
//
// The POC is a nonprofit but not a charity: over each accounting
// epoch its LMP/CSP revenue must cover its BP and ISP costs, which
// Accounts.POCBalance lets callers assert.
package market

import "fmt"

// EntityKind classifies the participants of the POC economy.
type EntityKind int

const (
	// POC is the nonprofit public-option core itself.
	POC EntityKind = iota
	// BandwidthProvider leases links to the POC.
	BandwidthProvider
	// ExternalISP sells the POC general connectivity to the rest of
	// the Internet.
	ExternalISP
	// LastMileProvider serves customers and buys transit from the POC.
	LastMileProvider
	// ContentProvider sells services; may attach to the POC directly
	// or through an LMP.
	ContentProvider
	// Customer is an end user or enterprise.
	Customer
)

func (k EntityKind) String() string {
	switch k {
	case POC:
		return "POC"
	case BandwidthProvider:
		return "BP"
	case ExternalISP:
		return "ISP"
	case LastMileProvider:
		return "LMP"
	case ContentProvider:
		return "CSP"
	case Customer:
		return "customer"
	default:
		return fmt.Sprintf("EntityKind(%d)", int(k))
	}
}

// EntityID identifies a registered entity.
type EntityID int

// Entity is one market participant.
type Entity struct {
	ID   EntityID
	Kind EntityKind
	Name string
}

// FlowKind classifies a payment by what it buys. The §3.2 rules
// constrain which (payer, payee, kind) triples are legal; Ledger.Pay
// enforces them.
type FlowKind int

const (
	// LinkLease: POC → BP, auction payments for leased links.
	LinkLease FlowKind = iota
	// ISPContract: POC → external ISP, general-access contract.
	ISPContract
	// POCAccess: LMP or directly-attached CSP → POC.
	POCAccess
	// LMPAccess: customer or CSP → LMP.
	LMPAccess
	// ServiceFee: customer → CSP for a (non-free) service.
	ServiceFee
	// TerminationFee: CSP → LMP for traffic termination. Forbidden by
	// the POC's terms of service; the ledger accepts it only when
	// AllowTerminationFees is set, so the unregulated counterfactual
	// can be simulated.
	TerminationFee
	// RecallPenalty: BP → POC, the contractual penalty for recalling
	// a leased link before the lease period ends (§3.3 lets BPs
	// "quickly recall" overprovisioned bandwidth; the penalty prices
	// the disruption).
	RecallPenalty
	// EdgeServiceFee: CSP → POC, the posted fee for an open edge/CDN
	// service (§3.1–3.2).
	EdgeServiceFee
)

func (k FlowKind) String() string {
	switch k {
	case LinkLease:
		return "link-lease"
	case ISPContract:
		return "isp-contract"
	case POCAccess:
		return "poc-access"
	case LMPAccess:
		return "lmp-access"
	case ServiceFee:
		return "service-fee"
	case TerminationFee:
		return "termination-fee"
	case RecallPenalty:
		return "recall-penalty"
	case EdgeServiceFee:
		return "edge-service-fee"
	default:
		return fmt.Sprintf("FlowKind(%d)", int(k))
	}
}

// Payment is one ledger entry.
type Payment struct {
	Epoch  int
	From   EntityID
	To     EntityID
	Kind   FlowKind
	Amount float64
	Memo   string
}

// Ledger records entities and payments and enforces the §3.2 rules.
// The zero value is ready to use.
type Ledger struct {
	// AllowTerminationFees permits CSP→LMP termination fees, used
	// only to simulate the unregulated (UR) counterfactual. The POC's
	// terms of service keep this false.
	AllowTerminationFees bool

	entities []Entity
	payments []Payment
	epoch    int
}

// AddEntity registers a participant and returns its ID.
func (l *Ledger) AddEntity(kind EntityKind, name string) EntityID {
	id := EntityID(len(l.entities))
	l.entities = append(l.entities, Entity{ID: id, Kind: kind, Name: name})
	return id
}

// Entity returns a registered entity.
func (l *Ledger) Entity(id EntityID) (Entity, error) {
	if id < 0 || int(id) >= len(l.entities) {
		return Entity{}, fmt.Errorf("market: unknown entity %d", id)
	}
	return l.entities[id], nil
}

// Epoch returns the current accounting epoch.
func (l *Ledger) Epoch() int { return l.epoch }

// CloseEpoch advances to the next accounting epoch.
func (l *Ledger) CloseEpoch() { l.epoch++ }

// Pay records a payment after validating it against the §3.2 rules.
func (l *Ledger) Pay(from, to EntityID, kind FlowKind, amount float64, memo string) error {
	if amount < 0 {
		return fmt.Errorf("market: negative payment %v", amount)
	}
	payer, err := l.Entity(from)
	if err != nil {
		return err
	}
	payee, err := l.Entity(to)
	if err != nil {
		return err
	}
	if err := l.checkFlow(payer, payee, kind); err != nil {
		return err
	}
	l.payments = append(l.payments, Payment{
		Epoch: l.epoch, From: from, To: to, Kind: kind, Amount: amount, Memo: memo,
	})
	return nil
}

func (l *Ledger) checkFlow(payer, payee Entity, kind FlowKind) error {
	ok := false
	switch kind {
	case LinkLease:
		ok = payer.Kind == POC && payee.Kind == BandwidthProvider
	case ISPContract:
		ok = payer.Kind == POC && payee.Kind == ExternalISP
	case POCAccess:
		ok = (payer.Kind == LastMileProvider || payer.Kind == ContentProvider) && payee.Kind == POC
	case LMPAccess:
		ok = (payer.Kind == Customer || payer.Kind == ContentProvider) && payee.Kind == LastMileProvider
	case ServiceFee:
		ok = payer.Kind == Customer && payee.Kind == ContentProvider
	case TerminationFee:
		if !l.AllowTerminationFees {
			return fmt.Errorf("market: termination fees are forbidden by the POC terms of service")
		}
		ok = payer.Kind == ContentProvider && payee.Kind == LastMileProvider
	case RecallPenalty:
		ok = payer.Kind == BandwidthProvider && payee.Kind == POC
	case EdgeServiceFee:
		ok = (payer.Kind == ContentProvider || payer.Kind == LastMileProvider) && payee.Kind == POC
	default:
		return fmt.Errorf("market: unknown flow kind %d", int(kind))
	}
	if !ok {
		return fmt.Errorf("market: %s→%s is not a legal %s flow",
			payer.Kind, payee.Kind, kind)
	}
	return nil
}

// Balance returns the net position of an entity (received − paid)
// over all epochs, or over a single epoch if epoch >= 0.
func (l *Ledger) Balance(id EntityID, epoch int) float64 {
	b := 0.0
	for _, p := range l.payments {
		if epoch >= 0 && p.Epoch != epoch {
			continue
		}
		if p.To == id {
			b += p.Amount
		}
		if p.From == id {
			b -= p.Amount
		}
	}
	return b
}

// POCBalance returns the POC's net position for the given epoch (or
// all epochs when epoch < 0). A nonprofit that breaks even reports a
// balance ≥ 0 with the surplus bounded by its reserve policy.
func (l *Ledger) POCBalance(epoch int) float64 {
	for _, e := range l.entities {
		if e.Kind == POC {
			return l.Balance(e.ID, epoch)
		}
	}
	return 0
}

// TotalsByKind sums payments per flow kind for the given epoch (all
// epochs when epoch < 0), in deterministic kind order.
func (l *Ledger) TotalsByKind(epoch int) map[FlowKind]float64 {
	out := map[FlowKind]float64{}
	for _, p := range l.payments {
		if epoch >= 0 && p.Epoch != epoch {
			continue
		}
		out[p.Kind] += p.Amount
	}
	return out
}

// Conservation verifies the zero-sum property: the sum of all
// balances is 0 (every unit received was paid by someone).
func (l *Ledger) Conservation() float64 {
	total := 0.0
	for _, e := range l.entities {
		total += l.Balance(e.ID, -1)
	}
	return total
}
