package main

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The sandbox this benchmark runs in shares its processor's caches and
// memory with other tenants, and their load comes and goes over
// minutes: the same repetition reads 35 % slower in a busy phase than
// in a quiet one, and no amount of repeating within a 20 s run averages
// that out (README.md, "Machine-speed normalisation", has the
// measurements). So the harness times a fixed kernel between
// repetitions and divides the run's timings by how much slower than
// nominal the kernel ran. The kernel has four parts, weighted equally:
// dependent arithmetic, a random walk over 8 MB (beyond the private
// caches), a 32 MB copy (memory bandwidth) and a sort. A busy phase
// slows them by about 1.05x, 1.6x, 1.3x and 1.2x and the workloads by
// 1.3x, which is near the parts' mean. The kernel runs on all
// processors at once, as the auctions do.

// calPart is one part of the kernel. nominal is its time on the
// development sandbox at that machine's tenth-percentile speed; it only
// fixes the scale, so on another machine every timing is off by one
// constant factor and ratios between two commits are not.
type calPart struct {
	nominal time.Duration
	run     func(c *calibrator, p int)
}

const (
	calWalkEntries = 2 << 20  // random-walk permutation: 8 MB of uint32
	calCopyBytes   = 16 << 20 // per processor and direction
	calSortKeys    = 80_000
	lcgMul, lcgAdd = 6364136223846793005, 1442695040888963407
)

var calParts = []calPart{
	{7600 * time.Microsecond, (*calibrator).alu},
	{13500 * time.Microsecond, (*calibrator).walkPart},
	{4300 * time.Microsecond, (*calibrator).copyPart},
	{7400 * time.Microsecond, (*calibrator).sortPart},
}

// calibrator owns the kernel's buffers. The large ones are mapped
// outside the Go heap, so that their 70 MB do not change when the
// collector runs during the workloads.
type calibrator struct {
	once  sync.Once
	procs int
	walk  []byte // calWalkEntries little-endian uint32: one cycle through all entries
	src   [][]byte
	dst   [][]byte
	keys  [][]float64
	sink  []uint64 // per processor; keeps the parts' results alive
}

var cal calibrator

func mapped(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: mmap of a calibration buffer: " + err.Error())
	}
	return b
}

func (c *calibrator) init() {
	c.procs = runtime.GOMAXPROCS(0)
	// Sattolo's shuffle: a permutation that is a single cycle, so a walk
	// never falls into a short loop that fits a private cache.
	next := make([]uint32, calWalkEntries)
	for i := range next {
		next[i] = uint32(i)
	}
	s := uint64(12345)
	for i := calWalkEntries - 1; i > 0; i-- {
		s = s*lcgMul + lcgAdd
		j := int((s >> 33) % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	c.walk = mapped(4 * calWalkEntries)
	for i, v := range next {
		binary.LittleEndian.PutUint32(c.walk[4*i:], v)
	}
	for p := 0; p < c.procs; p++ {
		c.src = append(c.src, mapped(calCopyBytes))
		c.dst = append(c.dst, mapped(calCopyBytes))
		c.keys = append(c.keys, make([]float64, calSortKeys))
	}
	c.sink = make([]uint64, c.procs)
	for p := 0; p < c.procs; p++ {
		c.copyPart(p) // touch every mapped page before the first timed round
	}
}

func (c *calibrator) alu(p int) {
	x := uint64(p) + 1
	for j := 0; j < 6_000_000; j++ {
		x = x*lcgMul + lcgAdd
	}
	c.sink[p] += x
}

func (c *calibrator) walkPart(p int) {
	i := uint32(p * 1000)
	for k := 0; k < 120_000; k++ {
		i = binary.LittleEndian.Uint32(c.walk[4*i:])
	}
	c.sink[p] += uint64(i)
}

func (c *calibrator) copyPart(p int) {
	for r := 0; r < 2; r++ {
		copy(c.dst[p], c.src[p])
		c.src[p][r]++
	}
}

func (c *calibrator) sortPart(p int) {
	a := c.keys[p]
	x := uint64(p) + 7
	for k := range a {
		x = x*lcgMul + lcgAdd
		a[k] = float64(x >> 11)
	}
	sort.Float64s(a)
}

// round runs the kernel once on every processor at the same time, each
// going through the parts in order, and returns the machine's slowness:
// the mean, over parts and processors, of time taken over nominal time.
func (c *calibrator) round() float64 {
	c.once.Do(c.init)
	slow := make([]float64, c.procs)
	var wg sync.WaitGroup
	for p := 0; p < c.procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mine := 0.0
			for _, part := range calParts {
				t := time.Now()
				part.run(c, p)
				mine += float64(time.Since(t)) / float64(part.nominal)
			}
			slow[p] = mine
		}(p)
	}
	wg.Wait()
	sum := 0.0
	for _, s := range slow {
		sum += s
	}
	return sum / float64(c.procs*len(calParts))
}
