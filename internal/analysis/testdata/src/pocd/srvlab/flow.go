package srvlab

// One case per control-flow shape the domination check's CFG models.

// Case 0 mutates before any append, then falls into the default, which
// appends; every path out of the switch has appended.
func (s *Server) switchFallthrough(op int, payload []byte) {
	switch op {
	case 0:
		s.st.apply(op) // want "state mutation s\\.st\\.apply before the journal append"
		fallthrough
	default:
		_, _ = s.jw.Append(payload)
	}
	s.st.apply(op)
}

// A type switch without a default may match no clause.
func (s *Server) typeSwitch(v any, payload []byte) {
	switch v.(type) {
	case int, string:
		_, _ = s.jw.Append(payload)
	}
	s.st.apply(0) // want "state mutation s\\.st\\.apply before the journal append"
}

// A select's default is an alternative to its receive, and panic ends
// that path.
func (s *Server) selectOne(ops <-chan int, payload []byte) {
	for n := 0; n < 2; n++ {
		select {
		case <-ops:
			_, _ = s.jw.Append(payload)
		default:
			panic("idle")
		}
		s.st.apply(n)
	}
}

// The labeled break is the only way out of the condition-less loop,
// and continue passes the switch to the range.
func (s *Server) drain(batches <-chan []int, payload []byte) {
outer:
	for {
		batch := <-batches
		_, _ = s.jw.Append(payload)
		for _, op := range batch {
			switch {
			case op == 0:
				continue
			case op < 0:
				break outer
			}
		}
	}
	s.st.apply(0)
}
