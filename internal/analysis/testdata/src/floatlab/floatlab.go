// Package floatlab exercises floatorder in goroutines and channel
// ranges: scheduler-ordered float reductions are flagged, the
// per-index-slot merge pattern the auction uses is not.
package floatlab

import "sync"

func goroutineAccum(vals []float64) float64 {
	var sum float64
	done := make(chan struct{})
	go func() {
		for _, v := range vals {
			sum += v // want "scheduling-ordered"
		}
		close(done)
	}()
	<-done
	return sum
}

func chanAccum(ch chan float64) float64 {
	total := 0.0
	for v := range ch {
		total += v // want "channel-receive order"
	}
	return total
}

func recvFold(ch chan float64, n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		total += <-ch // want "arrival order"
	}
	return total
}

func spelledFold(ch chan float64) float64 {
	total := 0.0
	total = total + <-ch // want "arrival order"
	return total
}

// perKeyInGoroutine: the per-key write is exempt from the map range
// around it, but not from the goroutine around that range — another
// goroutine may be folding into the same dst.
func perKeyInGoroutine(src, dst map[string]float64, done chan struct{}) {
	go func() {
		for k, v := range src {
			dst[k] += v // want "into dst\\[k\\] from a goroutine"
		}
		close(done)
	}()
}

// perKeyOwnMap: the same loop over a map the goroutine made itself.
func perKeyOwnMap(src map[string]float64, out chan map[string]float64) {
	go func() {
		dst := map[string]float64{}
		for k, v := range src {
			dst[k] += v
		}
		out <- dst
	}()
}

// spelledInGoroutine: the spelled-out fold is the same fold.
func spelledInGoroutine(vals []float64) float64 {
	var sum float64
	done := make(chan struct{})
	go func() {
		for _, v := range vals {
			sum = sum + v // want "scheduling-ordered"
		}
		close(done)
	}()
	<-done
	return sum
}

// indexSlots is the sanctioned shape: one slot per goroutine, plain
// assignment, serial reduction after the barrier.
func indexSlots(parts [][]float64) float64 {
	results := make([]float64, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local := 0.0
			for _, v := range parts[i] {
				local += v // goroutine-local accumulator
			}
			results[i] = local // index slot, never flagged
		}(i)
	}
	wg.Wait()
	total := 0.0
	for _, v := range results {
		total += v // serial slice reduction
	}
	return total
}

func allowed(ch chan float64) float64 {
	t := 0.0
	t += <-ch //lint:allow floatorder single producer, arrival order fixed by protocol
	return t
}
