// Package lib holds one exported name for each rule of the detector.
package lib

// Kind has a String method that only fmt calls, through fmt.Stringer.
type Kind int

// String is exempt: it implements fmt.Stringer.
func (k Kind) String() string { return "kind" }

// Uncalled is flagged: nothing calls it.
func Uncalled() {}

// TestOnly is flagged: only a _test.go file calls it.
func TestOnly() {}

// Planned is flagged but allowlisted.
func Planned() {}

// Helper is used inside its own package.
func Helper() int { return 1 }

// Counted is called by the root package.
func Counted() int {
	var s slab[int]
	return Helper() + s.alloc()
}

// slab is generic and unexported: the call on slab[int] counts for
// alloc's declaration.
type slab[T any] struct{ free []T }

func (s *slab[T]) alloc() int { return len(s.free) }

// orphan is flagged: unexported, and nothing calls it.
func orphan() {}

// Box is generic: a call on Box[int] counts for the declaration.
type Box[T any] struct{ v T }

// Get is called through the instantiation Box[int].
func (b *Box[T]) Get() T { return b.v }

// Put is flagged: nothing calls it.
func (b *Box[T]) Put(v T) { b.v = v }

// Meter is used through a method value.
type Meter struct{}

// Read is referenced as a method value.
func (Meter) Read() int { return 0 }
