package netsim

// SetupInsideClosure deliberately peeks at a neighbor cell from a t=0
// callback that runs before the sharded executor forks the cells; the
// directive records why the race cannot happen.
func SetupInsideClosure(m *Mesh) {
	a := m.Cell(0)
	b := m.Cell(1)
	a.Schedule(0, Func(func() {
		//lint:crossshard cross-shard-ok -- runs at t=0 before RunSharded forks the cells
		_ = b.Now()
	}), nil)
}
