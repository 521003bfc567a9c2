package netsim

// CrossTouch schedules work on cell 0's Sim and then calls straight into
// cell 1's Sim from inside the worker — a data race under RunSharded.
func CrossTouch(m *Mesh) {
	a := m.Cell(0)
	b := m.Cell(1)
	a.Schedule(5, Func(func() {
		b.After(1, Func(func() {}), nil) // want `touches cell 1`
	}), nil)
}

// CrossRead reads another cell's clock from a worker; reads race too,
// and serial vs sharded runs would disagree on the value.
func CrossRead(m *Mesh) {
	home := m.Cell(2)
	other := m.Cell(3)
	home.Schedule(1, Func(func() {
		_ = other.Now() // want `touches cell 3`
	}), nil)
}

// CopiedOrigin: provenance follows the copy; aliasing does not launder
// the cell identity.
func CopiedOrigin(m *Mesh) {
	a := m.Cell(0)
	b := m.Cell(1)
	alias := b
	a.After(2, Func(func() {
		alias.Schedule(9, Func(func() {}), nil) // want `touches cell 1`
	}), nil)
}

// RegisteredCrossTouch: a registered callback runs in the shard of the
// cell it is scheduled on, like any other worker — registration is a
// scheduling entry point, so its literal is checked too.
func RegisteredCrossTouch(m *Mesh) {
	a := m.Cell(0)
	b := m.Cell(4)
	a.Schedule(3, a.RegisterFunc(func() {
		_ = b.Now() // want `touches cell 4`
	}), nil)
}
