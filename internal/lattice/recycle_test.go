package lattice

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// allZero reports the first nonzero cell of buf, if any.
func allZero(t *testing.T, what string, buf []float64) {
	t.Helper()
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("%s: cell %d holds %v after Free", what, i, v)
		}
	}
}

// tailRef is the s ≥ 0 readout summed over the whole box in row-major
// order, reading every stored cell: cells outside the live region are zero
// and add nothing, so it is bit-equal to TailMass's band-limited scan.
func tailRef(e *Engine) float64 {
	total := 0.0
	for r := 0; r <= e.geo.RMax; r++ {
		for s := 0; s <= e.geo.SMax; s++ {
			total += e.Mass(r, s)
		}
	}
	return total
}

// TestFreeLeavesGridsZero: after random τ = 0 and τ > 0 sweeps with
// deposits between steps, Free leaves both grids all zero, and so does a
// Curve's Release and its rung change.
func TestFreeLeavesGridsZero(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		g := Geometry{RMax: 2 + r.Intn(30), SMin: -(1 + r.Intn(30)), SMax: 1 + r.Intn(30)}
		tau := 0.0
		if trial%2 == 1 {
			tau = math.Pow(10, -4-10*r.Float64())
		}
		e, err := NewEngine(g, testStencil(r.Intn(2) == 0), Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		deposit := func() {
			e.Add(r.Intn(g.RMax+1), g.SMin+r.Intn(g.SMax-g.SMin+1), r.Float64())
		}
		for i := 0; i < 1+r.Intn(6); i++ {
			deposit()
		}
		for i := r.Intn(3 * g.RMax); i > 0; i-- {
			e.Step()
			if r.Intn(8) == 0 {
				deposit()
			}
		}
		cur, next := e.cur, e.next
		e.Free()
		allZero(t, "cur", cur)
		allZero(t, "next", next)
		e.Free() // a second Free is a no-op
	}

	c := NewCurve(exactBuilder(1e-10), false)
	if err := c.Extend(16); err != nil {
		t.Fatal(err)
	}
	cur, next := c.eng.cur, c.eng.next
	if err := c.Extend(17); err != nil { // rung 16 → 32 frees the old engine
		t.Fatal(err)
	}
	allZero(t, "rung-change cur", cur)
	allZero(t, "rung-change next", next)
	cur, next = c.eng.cur, c.eng.next
	c.Release()
	allZero(t, "released cur", cur)
	allZero(t, "released next", next)
}

// TestTailMassReadout: the readout is right before the first Step, after
// an Add that follows steps, and in Full mode, where Step leaves it to the
// scan.
func TestTailMassReadout(t *testing.T) {
	g := Geometry{RMax: 20, SMin: -20, SMax: 20}
	banded, err := NewEngine(g, testStencil(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewEngine(g, testStencil(false), Options{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{banded, full} {
		seedGeometric(e, 20, 0.42)
		if got, want := e.TailMass(), tailRef(e); got != want {
			t.Fatalf("full=%v before the first Step: TailMass %v, want %v", e.opt.Full, got, want)
		}
		for i := 0; i < 6; i++ {
			e.Step()
			if got, want := e.TailMass(), tailRef(e); got != want {
				t.Fatalf("full=%v step %d: TailMass %v, want %v", e.opt.Full, i+1, got, want)
			}
		}
		before := e.TailMass()
		e.Add(3, 2, 0.125)
		if got, want := e.TailMass(), tailRef(e); got != want || got == before {
			t.Fatalf("full=%v after a late Add: TailMass %v, want %v (was %v)", e.opt.Full, got, want, before)
		}
		e.Step()
		if got, want := e.TailMass(), tailRef(e); got != want {
			t.Fatalf("full=%v step after the Add: TailMass %v, want %v", e.opt.Full, got, want)
		}
	}
	if banded.TailMass() != full.TailMass() {
		t.Fatalf("banded %v != full %v", banded.TailMass(), full.TailMass())
	}
}

// TestColdBuildsRecycleGrids: once one cold build to horizon 200 has been
// released, the next builds of the same ladder rungs take their grids from
// the pool and allocate only readouts and interval buffers — tens of KB,
// against the ~2.8 MB of grids a build allocates fresh.
func TestColdBuildsRecycleGrids(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts")
	}
	// sync.Pool keeps a freed grid in the freeing P's private slot, which
	// no other P can take: one migration between builds would allocate a
	// second set of grids. One P keeps the measurement about recycling.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build := func() {
		c := NewCurve(exactBuilder(0), false)
		if err := c.Extend(200); err != nil {
			t.Fatal(err)
		}
		c.Release()
	}
	build()
	const builds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 256<<10 {
		t.Fatalf("a warm cold build allocated %d B on average, want well under 256 KB", per)
	}
}

// TestAdvanceMatchesStep: Advance moves the chain exactly as Step does —
// every cell and the ledger keep their bits — and a TailMass read after
// it scans to Step's summed readout.
func TestAdvanceMatchesStep(t *testing.T) {
	g := Geometry{RMax: 40, SMin: -40, SMax: 40}
	for _, tau := range []float64{0, 1e-12} {
		stepped, err := NewEngine(g, testStencil(false), Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		advanced, err := NewEngine(g, testStencil(false), Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		seedGeometric(stepped, g.RMax, 0.42)
		seedGeometric(advanced, g.RMax, 0.42)
		for i := 1; i <= 40; i++ {
			stepped.Step()
			if i%3 == 0 {
				advanced.Step()
			} else {
				advanced.Advance()
			}
			if advanced.Dropped() != stepped.Dropped() {
				t.Fatalf("τ=%v step %d: ledger %v after Advance, %v after Step", tau, i, advanced.Dropped(), stepped.Dropped())
			}
			for r := 0; r <= g.RMax; r++ {
				for s := g.SMin; s <= g.SMax; s++ {
					if a, b := advanced.Mass(r, s), stepped.Mass(r, s); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("τ=%v step %d cell (%d,%d): %v after Advance, %v after Step", tau, i, r, s, a, b)
					}
				}
			}
			if a, b := advanced.TailMass(), stepped.TailMass(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("τ=%v step %d: TailMass %v after Advance, %v after Step", tau, i, a, b)
			}
		}
	}
}
