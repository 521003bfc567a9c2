package netsim

// ScheduledForDelivery: the event heap owns the packet once After
// accepts it.
func (s *Sim) ScheduledForDelivery(at int64, r Receiver) {
	p := s.NewPacket(1, 1)
	s.After(at, r, p)
}

// ScheduledAbsolute: Schedule is the same custody transfer.
func (s *Sim) ScheduledAbsolute(at int64, r Receiver) {
	p := s.NewPacket(1, 2)
	s.Schedule(at, r, p)
}

// PushedAcrossMesh: the outbox owns the packet once Send accepts it.
func PushedAcrossMesh(m *Mesh, s *Sim, r Receiver) {
	p := s.NewPacket(2, 1)
	m.Send(0, 1, 5, r, p)
}

// SentOrFreed: datapath custody on the good path, release on the drop
// path — both settle the packet.
func SentOrFreed(l *Link, s *Sim, up bool) {
	p := s.NewPacket(3, 1)
	if !up {
		s.FreePacket(p)
		return
	}
	l.Send(p)
}

// HeldInFlight records the packet in a struct the Sim owns — an escape
// into the aggregate, so release is the holder's problem, not this
// function's.
func (s *Sim) HeldInFlight() {
	p := s.NewPacket(4, 1)
	s.inflight = append(s.inflight, p)
}
