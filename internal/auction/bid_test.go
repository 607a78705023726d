package auction

import (
	"math"
	"math/rand"
	"testing"
)

// fixedPrice prices every link at p.
func fixedPrice(p float64) func(int) float64 {
	return func(int) float64 { return p }
}

// mapAdditiveCost and mapVolumeDiscountCost are the map-indexed cost
// functions the array kernel replaced, kept as the reference the
// kernel must match bit for bit.
func mapAdditiveCost(priceByLink map[int]float64) CostFn {
	return func(links []int) float64 {
		total := 0.0
		for _, id := range links {
			p, ok := priceByLink[id]
			if !ok {
				return math.Inf(1)
			}
			total += p
		}
		return total
	}
}

func mapVolumeDiscountCost(priceByLink map[int]float64, rate, maxDiscount float64) CostFn {
	add := mapAdditiveCost(priceByLink)
	return func(links []int) float64 {
		base := add(links)
		if math.IsInf(base, 1) || len(links) <= 1 {
			return base
		}
		d := rate * float64(len(links)-1)
		if d > maxDiscount {
			d = maxDiscount
		}
		return base * (1 - d)
	}
}

// TestCostKernelMatchesMapCost: AdditiveCost and VolumeDiscountCost
// over the array kernel return the map versions' bits on random
// ascending subsets, the empty set, a singleton (no discount), sets
// long enough to hit the 12% cap, and subsets holding an unoffered, a
// negative or an out-of-span ID, which price at +Inf.
func TestCostKernelMatchesMapCost(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	capped := 0
	for trial := 0; trial < 200; trial++ {
		// Offer a random subset of a random span, so the span holds IDs
		// the bid does not offer.
		lo, span := rng.Intn(50), 1+rng.Intn(80)
		var links []int
		prices := map[int]float64{}
		for id := lo; id < lo+span; id++ {
			if rng.Intn(3) > 0 {
				links = append(links, id)
				prices[id] = rng.ExpFloat64() * 1e4
			}
		}
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		price := func(id int) float64 { return prices[id] }
		add, addRef := AdditiveCost(links, price), mapAdditiveCost(prices)
		vol, volRef := VolumeDiscountCost(links, price, 0.01, 0.12), mapVolumeDiscountCost(prices, 0.01, 0.12)
		check := func(what string, sub []int) {
			t.Helper()
			if got, want := add(sub), addRef(sub); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %s %v: additive %v, map %v", trial, what, sub, got, want)
			}
			if got, want := vol(sub), volRef(sub); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %s %v: discounted %v, map %v", trial, what, sub, got, want)
			}
		}
		check("empty", nil)
		var offered []int
		for id := lo; id < lo+span; id++ {
			if _, ok := prices[id]; ok {
				offered = append(offered, id)
			}
		}
		if len(offered) > 0 {
			check("singleton", offered[rng.Intn(len(offered)):][:1])
		}
		// The whole offer: past 13 links the discount is at its cap.
		check("all", offered)
		if len(offered) > 13 {
			capped++
		}
		for i := 0; i < 10; i++ {
			var sub []int
			for _, id := range offered {
				if rng.Intn(2) == 0 {
					sub = append(sub, id)
				}
			}
			check("subset", sub)
		}
		for _, bad := range []int{-1, lo - 1, lo + span, lo + span + 1000} {
			check("outside", append(append([]int(nil), offered...), bad))
		}
		for id := lo; id < lo+span; id++ {
			if _, ok := prices[id]; !ok {
				check("unoffered", append(append([]int(nil), offered...), id))
				break
			}
		}
	}
	if capped == 0 {
		t.Fatal("no trial offered enough links to reach the discount cap")
	}
	if got := VolumeDiscountCost(nil, nil, 0.01, 0.12)([]int{0}); !math.IsInf(got, 1) {
		t.Fatalf("an empty bid prices link 0 at %v, want +Inf", got)
	}
}
