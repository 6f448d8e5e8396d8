package lattice

import (
	"math"
	"testing"
)

// testStencil is a representative Section 6.6 law (ǫ = 0.4, ph = 0.35).
func testStencil(sticky bool) Stencil {
	return Stencil{PA: 0.30, Ph: 0.35, PH: 0.35, StickyReach: sticky}
}

// seedGeometric deposits the truncated geometric diagonal law β^r(1−β).
func seedGeometric(e *Engine, rmax int, beta float64) {
	tail := 1.0
	for r := 0; r < rmax; r++ {
		e.Add(r, r, (1-beta)*math.Pow(beta, float64(r)))
		tail -= (1 - beta) * math.Pow(beta, float64(r))
	}
	e.Add(rmax, rmax, tail)
}

func TestEngineValidation(t *testing.T) {
	good := Geometry{RMax: 4, SMin: -4, SMax: 4}
	for _, tc := range []struct {
		name string
		g    Geometry
		st   Stencil
		opt  Options
	}{
		{"rmax", Geometry{RMax: 0, SMin: -4, SMax: 4}, testStencil(false), Options{}},
		{"smin", Geometry{RMax: 4, SMin: 0, SMax: 4}, testStencil(false), Options{}},
		{"smax", Geometry{RMax: 4, SMin: -4, SMax: 0}, testStencil(false), Options{}},
		{"prob", good, Stencil{PA: -0.1, Ph: 0.5, PH: 0.6}, Options{}},
		{"tau", good, testStencil(false), Options{Tau: -1}},
		{"full+tau", good, testStencil(false), Options{Full: true, Tau: 1e-9}},
	} {
		if _, err := NewEngine(tc.g, tc.st, tc.opt); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if _, err := NewEngine(good, testStencil(false), Options{}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestMassConservation: lattice mass plus the ledger is invariant under
// stepping, in every mode.
func TestMassConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"banded-exact", Options{}},
		{"banded-pruned", Options{Tau: 1e-12}},
		{"full", Options{Full: true}},
	} {
		e, err := NewEngine(Geometry{RMax: 41, SMin: -40, SMax: 41}, testStencil(false), tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		seedGeometric(e, 41, 0.42)
		for i := 0; i < 40; i++ {
			e.Step()
			got := e.Total() + e.Dropped()
			if math.Abs(got-1) > 1e-12 {
				t.Fatalf("%s: step %d: total+dropped = %.17g", tc.name, i+1, got)
			}
		}
		if tc.opt.Tau == 0 && e.Dropped() != 0 {
			t.Errorf("%s: exact mode accumulated ledger %v", tc.name, e.Dropped())
		}
	}
}

// TestBandedMatchesFull: active-window tracking is a pure optimization —
// the banded sweep reproduces the full-grid scan at every step, for both
// the plain and the sticky-reach stencil.
func TestBandedMatchesFull(t *testing.T) {
	for _, sticky := range []bool{false, true} {
		g := Geometry{RMax: 25, SMin: -24, SMax: 25}
		banded, err := NewEngine(g, testStencil(sticky), Options{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewEngine(g, testStencil(sticky), Options{Full: true})
		if err != nil {
			t.Fatal(err)
		}
		seedGeometric(banded, 25, 0.42)
		seedGeometric(full, 25, 0.42)
		for i := 0; i < 24; i++ {
			banded.Step()
			full.Step()
			b, f := banded.TailMass(), full.TailMass()
			if math.Abs(b-f) > 1e-13*math.Max(f, 1e-300) {
				t.Fatalf("sticky=%v step %d: banded %.17g != full %.17g", sticky, i+1, b, f)
			}
		}
	}
}

// TestPrunedBracketContainsExact: for a range of thresholds the bracket
// [TailMass, TailMass+Dropped] contains the exact readout at every step.
func TestPrunedBracketContainsExact(t *testing.T) {
	g := Geometry{RMax: 61, SMin: -60, SMax: 61}
	exact, err := NewEngine(g, testStencil(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedGeometric(exact, 61, 0.42)
	var truth []float64
	for i := 0; i < 60; i++ {
		exact.Step()
		truth = append(truth, exact.TailMass())
	}
	for _, tau := range []float64{1e-30, 1e-15, 1e-8} {
		e, err := NewEngine(g, testStencil(false), Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		seedGeometric(e, 61, 0.42)
		for i := 0; i < 60; i++ {
			e.Step()
			lo, hi := e.TailMass(), e.TailMass()+e.Dropped()
			if truth[i] < lo-1e-13 || truth[i] > hi+1e-13 {
				t.Fatalf("τ=%g step %d: exact %.17g outside [%.17g, %.17g]",
					tau, i+1, truth[i], lo, hi)
			}
		}
		if e.Dropped() <= 0 {
			t.Errorf("τ=%g pruned nothing over 60 steps", tau)
		}
	}
}

// TestStickyReachDominates: the sticky-reach chain is conservative — its
// readout dominates the plain chain's at every step on the same geometry.
func TestStickyReachDominates(t *testing.T) {
	g := Geometry{RMax: 30, SMin: -30, SMax: 30}
	plain, _ := NewEngine(g, testStencil(false), Options{})
	sticky, _ := NewEngine(g, testStencil(true), Options{})
	seedGeometric(plain, 30, 0.42)
	seedGeometric(sticky, 30, 0.42)
	for i := 0; i < 30; i++ {
		plain.Step()
		sticky.Step()
		if sticky.TailMass()+1e-15 < plain.TailMass() {
			t.Fatalf("step %d: sticky %.17g below plain %.17g", i+1, sticky.TailMass(), plain.TailMass())
		}
	}
}

// TestAddSaturates: out-of-box deposits pool at the boundary and the mass
// accounting stays exact, including deposits after stepping has begun.
func TestAddSaturates(t *testing.T) {
	e, err := NewEngine(Geometry{RMax: 3, SMin: -3, SMax: 3}, testStencil(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Add(10, 10, 0.25) // pools at (3, 3)
	e.Add(-2, -9, 0.25) // pools at (0, −3)
	e.Add(1, 0, 0.5)
	e.Add(2, 1, 0) // ignored
	if got := e.Total(); math.Abs(got-1) > 1e-15 {
		t.Fatalf("total after saturating adds = %v", got)
	}
	rLo, rHi, sLo, sHi := e.Window()
	if rLo != 0 || rHi != 3 || sLo != -3 || sHi != 3 {
		t.Fatalf("window = (%d,%d,%d,%d)", rLo, rHi, sLo, sHi)
	}
	e.Step()
	// A late deposit into a row the window has not visited must not read
	// stale cells.
	e.Add(3, -2, 0.125)
	if got := e.Total(); math.Abs(got-1.125) > 1e-15 {
		t.Fatalf("total after late add = %v", got)
	}
}

// TestWindowGrowthBound: the live bounding box grows by at most one cell
// per step in each direction.
func TestWindowGrowthBound(t *testing.T) {
	e, err := NewEngine(Geometry{RMax: 50, SMin: -50, SMax: 50}, testStencil(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Add(10, 0, 1)
	pLo, pHi, psLo, psHi := e.Window()
	for i := 0; i < 40; i++ {
		e.Step()
		rLo, rHi, sLo, sHi := e.Window()
		if rLo < pLo-1 || rHi > pHi+1 || sLo < psLo-1 || sHi > psHi+1 {
			t.Fatalf("step %d: window (%d,%d,%d,%d) grew faster than ±1 from (%d,%d,%d,%d)",
				i+1, rLo, rHi, sLo, sHi, pLo, pHi, psLo, psHi)
		}
		pLo, pHi, psLo, psHi = rLo, rHi, sLo, sHi
	}
}

// TestEmptyEngine: stepping an empty engine is a harmless no-op.
func TestEmptyEngine(t *testing.T) {
	e, err := NewEngine(Geometry{RMax: 4, SMin: -4, SMax: 4}, testStencil(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if e.Steps() != 1 || e.Total() != 0 || e.TailMass() != 0 {
		t.Fatalf("empty engine: steps=%d total=%v tail=%v", e.Steps(), e.Total(), e.TailMass())
	}
}

// TestOneCellRows: on the settlement chain's diagonal seed, every row
// beyond the boundary's reach holds one cell, so most interior rows of a
// step take Step's one-cell path. Every cell stays bitwise equal to the
// Full-mode sweep, which never takes it.
func TestOneCellRows(t *testing.T) {
	g := Geometry{RMax: 65, SMin: -64, SMax: 65}
	for _, sticky := range []bool{false, true} {
		banded, err := NewEngine(g, testStencil(sticky), Options{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewEngine(g, testStencil(sticky), Options{Full: true})
		if err != nil {
			t.Fatal(err)
		}
		seedGeometric(banded, g.RMax, 0.42)
		seedGeometric(full, g.RMax, 0.42)
		oneCell := 0
		for step := 1; step <= 64; step++ {
			for rd := max(banded.rLo-1, 1); rd <= min(banded.rHi+1, g.RMax-1); rd++ {
				aLo, aHi := banded.band(rd - 1)
				hLo, hHi := banded.band(rd + 1)
				if aLo == aHi && hLo == hHi && hLo == aLo+2 && aLo >= 0 && !(sticky && rd+1 == g.RMax) {
					oneCell++
				}
			}
			banded.Step()
			full.Step()
			for r := 0; r <= g.RMax; r++ {
				for s := g.SMin; s <= g.SMax; s++ {
					if b, f := banded.Mass(r, s), full.Mass(r, s); math.Float64bits(b) != math.Float64bits(f) {
						t.Fatalf("sticky=%v step %d cell (%d,%d): banded %v != full %v", sticky, step, r, s, b, f)
					}
				}
			}
			if b, f := banded.TailMass(), full.TailMass(); math.Float64bits(b) != math.Float64bits(f) {
				t.Fatalf("sticky=%v step %d: tail banded %v != full %v", sticky, step, b, f)
			}
		}
		if oneCell == 0 {
			t.Fatalf("sticky=%v: no step took the one-cell path", sticky)
		}
	}
}
