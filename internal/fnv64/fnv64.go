// Package fnv64 is the repo's one FNV-1a implementation for 64-bit
// word folding. The auction (price-metric fingerprints, cache metric
// tags), the provisioner (traffic-matrix and network fingerprints,
// feasibility-cache keys, the incremental check memo) and the cache
// persistence layer all derive content-stable identities from it; a
// single copy keeps those identities mutually consistent — a key
// written by one process must hash identically when another loads it.
package fnv64

// FNV-1a constants for the 64-bit variant.
const (
	Offset = 14695981039346656037
	Prime  = 1099511628211
)

// Mix folds one 64-bit word into an FNV-1a state, byte by byte,
// little-endian — exactly equivalent to hashing the word's 8 bytes.
func Mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= Prime
		v >>= 8
	}
	return h
}
