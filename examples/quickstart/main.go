// Command quickstart walks the full POC lifecycle on a small
// deterministic scenario: build the topology, collect bids, run the
// VCG auction, activate the fabric, attach two LMPs and a CSP under
// the network-neutrality terms of service, carry traffic, and settle
// one billing epoch at break-even prices.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	poc "github.com/public-option/poc"
)

func main() {
	log.SetFlags(0)

	// 1. Assemble a deterministic scenario (30% of paper scale keeps
	// the auction to a few seconds).
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.35})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %s\n", s.Network.Summary())
	fmt.Printf("traffic:  %.1f Tbps aggregate over %d routers\n",
		s.TM.Total()/1000, s.TM.Size())

	// 2. Stand up the POC operator: submit the bids, run the
	// bandwidth auction and activate the fabric over the winners.
	op, res, err := s.Deploy(poc.Constraint1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auction:  selected %d links, C(SL)=%.0f, surplus=%.0f\n",
		len(res.Selected), res.TotalCost, res.Surplus())
	for a := 0; a < len(res.Payments); a++ {
		if res.Payments[a] > 0 {
			fmt.Printf("  %s: bid %.0f → paid %.0f (PoB %.2f)\n",
				s.Network.BPs[a].Name, res.BPCost[a], res.Payments[a], res.PoB(a))
		}
	}

	// 3. Attach members. The LMP's declared policy is audited
	// against the §3.4 peering conditions.
	if _, err := op.AttachLMP("lmp-east", 0, poc.PeeringPolicy{}); err != nil {
		log.Fatal(err)
	}
	if _, err := op.AttachLMP("lmp-west", len(s.Network.Routers)-1, poc.PeeringPolicy{}); err != nil {
		log.Fatal(err)
	}
	if _, err := op.AttachCSP("megaflix", len(s.Network.Routers)/2); err != nil {
		log.Fatal(err)
	}

	// 4. Carry traffic edge to edge.
	for _, dst := range []string{"lmp-east", "lmp-west"} {
		fl, err := op.StartFlow("megaflix", dst, 5, poc.BestEffort)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flow:     megaflix→%s %.1f Gbps over %d links (%.0f km)\n",
			dst, fl.Allocated, len(fl.Links), fl.LatencyKm)
	}

	// 5. Bill one hour at break-even prices.
	rep, err := op.BillEpoch(3600)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("billing:  lease cost %.2f, revenue %.2f, POC net %.2f (price %.5f/GB)\n",
		rep.LeaseCost+rep.VirtualCost, rep.Revenue, rep.POCNet, rep.PricePerGB)
	names := make([]string, 0, len(rep.UsageGB))
	for name := range rep.UsageGB {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if gb := rep.UsageGB[name]; gb > 0 {
			fmt.Printf("  %-10s %8.0f GB → charged %.2f\n", name, gb, rep.MemberCharge[name])
		}
	}
}
