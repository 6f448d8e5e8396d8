package lattice

// Accessors that only the package's tests read.

// Window returns the bounding box of the live region (rLo, rHi, sLo, sHi).
// An empty engine returns rLo > rHi.
func (e *Engine) Window() (rLo, rHi, sLo, sHi int) {
	if e.rLo > e.rHi {
		return e.rLo, e.rHi, 0, 0
	}
	sLo, sHi = e.geo.SMax+1, e.geo.SMin-1
	for r := e.rLo; r <= e.rHi; r++ {
		if e.lo[r] <= e.hi[r] {
			sLo, sHi = min(sLo, e.lo[r]), max(sHi, e.hi[r])
		}
	}
	return e.rLo, e.rHi, sLo, sHi
}

// Dropped returns the total pruned mass over the sweep so far.
func (c *Curve) Dropped() float64 {
	if n := len(c.drop); n > 0 {
		return c.drop[n-1]
	}
	return 0
}
