// Command edgecdn demonstrates the open edge services of §3.1–3.2 and
// the federation of §1.2: a CSP deploys caches on the POC's open CDN
// (at the posted price available to every CSP), deliveries shift from
// its origin to the nearest cache — offloading the backbone — and a
// second POC interconnects so cross-POC traffic flows through a
// gateway with each domain billing its own carriage.
//
// Run with:
//
//	go run ./examples/edgecdn
package main

import (
	"fmt"
	"log"

	poc "github.com/public-option/poc"
)

func main() {
	log.SetFlags(0)

	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.35})
	if err != nil {
		log.Fatal(err)
	}
	op, _, err := s.Deploy(poc.Constraint1)
	if err != nil {
		log.Fatal(err)
	}

	n := len(s.Network.Routers)
	if _, err := op.AttachCSP("megaflix", 0); err != nil {
		log.Fatal(err)
	}
	var lmps []string
	for i, r := range []int{n - 1, n - 2, n / 2} {
		name := fmt.Sprintf("lmp-%d", i)
		if _, err := op.AttachLMP(name, r, poc.PeeringPolicy{}); err != nil {
			log.Fatal(err)
		}
		lmps = append(lmps, name)
	}

	// Open CDN: posted price, same for everyone.
	svc, err := op.OpenEdgeService("poc-cdn", 400)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("open CDN %q at posted price %.0f per cache-month\n", "poc-cdn", svc.PostedPrice())

	fabric := op.Fabric()
	origin, _ := fabric.Endpoint(0) // megaflix was the first attachment
	_ = origin

	deliver := func(tag string) []*poc.EdgeDelivery {
		var ds []*poc.EdgeDelivery
		for _, lmp := range lmps {
			// Find endpoints by name through the fabric listing.
			var consumer poc.EndpointID
			var originEp poc.EndpointID
			for _, ep := range fabric.Endpoints() {
				if ep.Name == lmp {
					consumer = ep.ID
				}
				if ep.Name == "megaflix" {
					originEp = ep.ID
				}
			}
			d, err := svc.Serve("megaflix", originEp, consumer, 2, poc.BestEffort)
			if err != nil {
				log.Printf("  %s: delivery to %s failed: %v", tag, lmp, err)
				continue
			}
			ds = append(ds, d)
		}
		rep := poc.EdgeOffload(ds)
		fmt.Printf("%s: %d deliveries, %.0f%% from cache, backbone link-Gbps %.0f\n",
			tag, rep.Deliveries, 100*rep.CacheFraction(), rep.LinkGbpsNow)
		return ds
	}

	fmt.Println("\nwithout caches:")
	ds := deliver("origin-only")
	for _, d := range ds {
		fabric.StopFlow(d.Flow.ID)
	}

	fmt.Println("\nafter deploying caches near the consumers:")
	for _, r := range []int{n - 1, n / 2} {
		if err := op.DeployCache("poc-cdn", "megaflix", r); err != nil {
			log.Fatal(err)
		}
	}
	deliver("with-cdn")
	var cdnFees float64
	for kind, amt := range op.Ledger().TotalsByKind(-1) {
		if kind.String() == "edge-service-fee" {
			cdnFees = amt
		}
	}
	fmt.Printf("CDN fees collected by the POC: %.0f\n", cdnFees)

	// Federation: a second POC interconnects.
	fmt.Println("\nfederation:")
	s2, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.35, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	op2, _, err := s2.Deploy(poc.Constraint1)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := op2.AttachLMP("lmp-far", 1, poc.PeeringPolicy{}); err != nil {
		log.Fatal(err)
	}

	fed := poc.NewFederation()
	a, err := fed.AddMember("poc-west", op.Fabric(), true)
	if err != nil {
		log.Fatal(err)
	}
	b, err := fed.AddMember("poc-east", op2.Fabric(), true)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fed.Connect(a, n/3, b, 0, 50); err != nil {
		log.Fatal(err)
	}

	var srcEp, dstEp poc.EndpointID
	for _, ep := range op.Fabric().Endpoints() {
		if ep.Name == "megaflix" {
			srcEp = ep.ID
		}
	}
	for _, ep := range op2.Fabric().Endpoints() {
		if ep.Name == "lmp-far" {
			dstEp = ep.ID
		}
	}
	cf, err := fed.StartCrossFlow(a, srcEp, b, dstEp, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cross-POC flow megaflix@poc-west → lmp-far@poc-east: %.1f Gbps via gateway %d\n",
		cf.Allocated, cf.Gateway)
	op.Fabric().Tick(3600)
	op2.Fabric().Tick(3600)
	usage := fed.SegmentUsage()
	fmt.Printf("per-domain carriage after 1h: poc-west %.0f GB, poc-east %.0f GB\n",
		usage[a], usage[b])
	fmt.Println("each member bills its own customers for its own segment (§3.2 across domains)")
}
