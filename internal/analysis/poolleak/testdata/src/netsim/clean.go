package netsim

// FreedOnEveryPath releases on both arms of the if.
func (s *Sim) FreedOnEveryPath(drop bool) {
	p := s.NewPacket(1, 1)
	if drop {
		s.FreePacket(p)
		return
	}
	p.Bytes = 1400
	s.FreePacket(p)
}

// FreedByDefer releases through the deferred call on every exit,
// including the early return.
func (s *Sim) FreedByDefer(early bool) {
	p := s.NewPacket(2, 1)
	defer s.FreePacket(p)
	if early {
		return
	}
	p.Bytes = 1200
}

// FreedInLoop settles each iteration's packet before the next one is
// checked out.
func (s *Sim) FreedInLoop(n int) {
	for i := 0; i < n; i++ {
		p := s.NewPacket(3, int64(i))
		if i%2 == 0 {
			p.Bytes = 0
		}
		s.FreePacket(p)
	}
}

// ReturnedToCaller hands custody up the stack.
func (s *Sim) ReturnedToCaller() *Packet {
	p := s.NewPacket(4, 1)
	p.Bytes = 1400
	return p
}

// FreedByTimer parks the packet in a closure; custody is the closure's,
// so this function's dataflow leaves it alone (and the closure body is
// analyzed as a function of its own).
func (s *Sim) FreedByTimer() {
	p := s.NewPacket(5, 1)
	s.After(10, Func(func() { s.FreePacket(p) }), nil)
}
