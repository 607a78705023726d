package provision

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// StateHash digests everything a TryDrop may touch, for the trajectory
// test in package provision_test: every live routing's assignments as
// (src, dst, Gbps bits, links) in pair order then list order, followed
// by the resid bits of its arena's enabled links.
func (s *Shaver) StateHash() string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, lr := range s.live {
		lr.r.Visit(func(src, dst int, asgs []PathAssignment) {
			for _, a := range asgs {
				put(uint64(src))
				put(uint64(dst))
				put(math.Float64bits(a.Gbps))
				put(uint64(len(a.Links)))
				for _, l := range a.Links {
					put(uint64(l))
				}
			}
		})
		lr.rt.enabled.Iterate(func(l int) {
			put(uint64(l))
			put(math.Float64bits(lr.rt.resid[l]))
		})
		put(math.MaxUint64)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
