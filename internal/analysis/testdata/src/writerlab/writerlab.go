package writerlab

// Server's state fields are owned by the single-writer loop: New may
// build them, loop may mutate them, nobody else writes.
type Server struct {
	st     map[string]int //lint:owner New,Server.loop
	closed bool           //lint:owner Shutdown
}

// Shared is constructor-owned state: the exported annotated field
// lets the cross-package test (writerlab/client) prove ownership
// travels through facts.
type Shared struct {
	// Cache is rebound only at construction.
	//lint:owner NewShared
	Cache map[string]int
}

func NewShared() *Shared {
	s := &Shared{}
	s.Cache = map[string]int{} // owner: fine
	return s
}

func New() *Server {
	s := &Server{}
	s.st = map[string]int{} // owner: fine
	return s
}

func (s *Server) loop(ops <-chan string) {
	for op := range ops {
		s.st[op]++ // owner (Type.Method form): fine
	}
}

// Positive: a non-owner method writes an owned field.
func (s *Server) Handle(op string) {
	s.st[op] = 1 // want "write to Server\\.st outside its owner \\(allowed: New, Server\\.loop\\)"
}

// Positive: even an owner may not write from a spawned goroutine.
func (s *Server) Shutdown() {
	s.closed = true // owner: fine
	go func() {
		s.closed = false // want "write to Server\\.closed from a spawned goroutine"
	}()
}

// Negative: reads are free for everyone.
func (s *Server) Lookup(op string) (int, bool) {
	v, ok := s.st[op]
	return v, ok
}

// Negative: unannotated fields are out of scope.
type loose struct{ n int }

func (l *loose) bump() { l.n++ }

// Sanctioned: a write the author defends.
func (s *Server) Reset() {
	s.st = nil //lint:allow writerescape reset only runs between test cases
}
