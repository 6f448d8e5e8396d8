package lattice

import (
	"errors"
	"math"
	"testing"
)

func builder(g Geometry, sticky bool, tau float64) Builder {
	return func(kCap int) (*Engine, error) {
		e, err := NewEngine(g, testStencil(sticky), Options{Tau: tau})
		if err != nil {
			return nil, err
		}
		seedGeometric(e, g.RMax, 0.42)
		return e, nil
	}
}

// exactBuilder sizes the geometry from the requested capacity, like the
// exact settlement chain does.
func exactBuilder(tau float64) Builder {
	return func(kCap int) (*Engine, error) {
		e, err := NewEngine(Geometry{RMax: kCap + 1, SMin: -kCap, SMax: kCap + 1}, testStencil(false), Options{Tau: tau})
		if err != nil {
			return nil, err
		}
		seedGeometric(e, kCap+1, 0.42)
		return e, nil
	}
}

// TestCurveIncrementalFixed: for a fixed-geometry chain, extending in
// stages is bit-identical to one shot — the sweep genuinely continues.
func TestCurveIncrementalFixed(t *testing.T) {
	g := Geometry{RMax: 32, SMin: -32, SMax: 32}
	staged := NewCurve(builder(g, true, 0), true)
	for _, k := range []int{7, 8, 40, 64} {
		if err := staged.Extend(k); err != nil {
			t.Fatal(err)
		}
	}
	oneshot := NewCurve(builder(g, true, 0), true)
	if err := oneshot.Extend(64); err != nil {
		t.Fatal(err)
	}
	if staged.Len() != 64 || oneshot.Len() != 64 {
		t.Fatalf("lengths %d, %d", staged.Len(), oneshot.Len())
	}
	for k := 1; k <= 64; k++ {
		if staged.Lower(k) != oneshot.Lower(k) {
			t.Fatalf("k=%d: staged %.17g != oneshot %.17g", k, staged.Lower(k), oneshot.Lower(k))
		}
	}
}

// TestCurveRebuild: a horizon-dependent curve extended past capacity
// rebuilds with doubled caps and reproduces the fresh sweep.
func TestCurveRebuild(t *testing.T) {
	staged := NewCurve(exactBuilder(0), false)
	if err := staged.Extend(10); err != nil {
		t.Fatal(err)
	}
	if err := staged.Extend(45); err != nil { // past capacity: rebuild
		t.Fatal(err)
	}
	fresh := NewCurve(exactBuilder(0), false)
	if err := fresh.Extend(45); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 45; k++ {
		s, f := staged.Lower(k), fresh.Lower(k)
		if math.Abs(s-f) > 1e-13*math.Max(f, 1e-300) {
			t.Fatalf("k=%d: staged %.17g != fresh %.17g", k, s, f)
		}
	}
}

// TestCurveBracket: brackets are ordered, cumulative, and clamp at 1.
func TestCurveBracket(t *testing.T) {
	c := NewCurve(exactBuilder(1e-10), false)
	if err := c.Extend(30); err != nil {
		t.Fatal(err)
	}
	prevDrop := 0.0
	for k := 1; k <= 30; k++ {
		lo, hi := c.Bracket(k)
		if lo > hi || hi > 1 || lo < 0 {
			t.Fatalf("k=%d: bad bracket [%v, %v]", k, lo, hi)
		}
		drop := hi - lo
		if drop+1e-15 < prevDrop {
			t.Fatalf("k=%d: ledger shrank: %v < %v", k, drop, prevDrop)
		}
		prevDrop = drop
	}
	if c.Dropped() <= 0 {
		t.Error("pruned curve has empty ledger")
	}
}

// TestCurveStateRestore: a curve restored from State() serves the same
// readouts without an engine, and extending past the restored horizon
// replays the deterministic sweep byte-identically to an uninterrupted
// cold build — for fixed, horizon-dependent, and pruned chains alike.
func TestCurveStateRestore(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() *Curve
	}{
		{"fixed", func() *Curve { return NewCurve(builder(Geometry{RMax: 32, SMin: -32, SMax: 32}, true, 0), true) }},
		{"exact", func() *Curve { return NewCurve(exactBuilder(0), false) }},
		{"pruned", func() *Curve { return NewCurve(exactBuilder(1e-10), false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.fresh()
			if err := orig.Extend(40); err != nil {
				t.Fatal(err)
			}
			lower, drop := orig.State()

			restored := tc.fresh()
			if err := restored.Restore(lower, drop); err != nil {
				t.Fatal(err)
			}
			if restored.Len() != 40 {
				t.Fatalf("restored Len %d, want 40", restored.Len())
			}
			for k := 1; k <= 40; k++ {
				lo, hi := orig.Bracket(k)
				rlo, rhi := restored.Bracket(k)
				if lo != rlo || hi != rhi {
					t.Fatalf("%s k=%d: restored bracket [%v,%v] != original [%v,%v]", tc.name, k, rlo, rhi, lo, hi)
				}
			}

			// Extend past the restored horizon: the rebuild must replay the
			// whole sweep bit-for-bit, including the already-restored prefix.
			if err := restored.Extend(70); err != nil {
				t.Fatal(err)
			}
			cold := tc.fresh()
			if err := cold.Extend(70); err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 70; k++ {
				lo, hi := cold.Bracket(k)
				rlo, rhi := restored.Bracket(k)
				if lo != rlo || hi != rhi {
					t.Fatalf("%s k=%d: post-restore extension [%v,%v] != cold [%v,%v]", tc.name, k, rlo, rhi, lo, hi)
				}
			}
		})
	}
}

// TestCurveRelease: a released curve keeps serving its readouts with only
// the readout slices resident, and releasing between extensions — within
// one ladder capacity and across capacity crossings — yields the very
// bits of a curve that kept its engine throughout.
func TestCurveRelease(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() *Curve
	}{
		{"fixed", func() *Curve { return NewCurve(builder(Geometry{RMax: 32, SMin: -32, SMax: 32}, true, 0), true) }},
		{"exact", func() *Curve { return NewCurve(exactBuilder(0), false) }},
		{"pruned", func() *Curve { return NewCurve(exactBuilder(1e-10), false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kept, released := tc.fresh(), tc.fresh()
			for _, k := range []int{5, 9, 16, 17, 30, 33, 70} {
				if err := kept.Extend(k); err != nil {
					t.Fatal(err)
				}
				if err := released.Extend(k); err != nil {
					t.Fatal(err)
				}
				released.Release()
				if got, want := released.MemBytes(), released.ReadoutBytes(); got != want {
					t.Fatalf("k=%d: released MemBytes %d, want the readouts' %d", k, got, want)
				}
				if kept.MemBytes() <= kept.ReadoutBytes() {
					t.Fatalf("k=%d: an unreleased curve reports no engine bytes", k)
				}
				for h := 1; h <= k; h++ {
					lo, hi := kept.Bracket(h)
					rlo, rhi := released.Bracket(h)
					if math.Float64bits(lo) != math.Float64bits(rlo) || math.Float64bits(hi) != math.Float64bits(rhi) {
						t.Fatalf("k=%d h=%d: released [%v,%v] != kept [%v,%v]", k, h, rlo, rhi, lo, hi)
					}
				}
			}
		})
	}
}

// TestCurveRestoreRejects: Restore validates its input — length
// mismatches, out-of-range probabilities, NaNs other than a hole's (NaN
// in both slices, before the last horizon), decreasing ledgers, and
// already-computed curves are all refused.
func TestCurveRestoreRejects(t *testing.T) {
	fresh := func() *Curve { return NewCurve(exactBuilder(0), false) }
	cases := []struct {
		name        string
		lower, drop []float64
	}{
		{"length-mismatch", []float64{0.5}, []float64{0, 0}},
		{"lower-above-one", []float64{1.5}, []float64{0}},
		{"lower-negative", []float64{-0.1}, []float64{0}},
		{"lower-nan", []float64{math.NaN()}, []float64{0}},
		{"drop-negative", []float64{0.5}, []float64{-1e-20}},
		{"drop-nan", []float64{0.5, 0.4}, []float64{0, math.NaN()}},
		{"drop-decreasing", []float64{0.5, 0.4}, []float64{1e-9, 1e-10}},
		{"drop-inf", []float64{0.5}, []float64{math.Inf(1)}},
		{"half-hole", []float64{math.NaN(), 0.4}, []float64{0, 0}},
		{"trailing-hole", []float64{0.5, math.NaN()}, []float64{0, math.NaN()}},
	}
	for _, tc := range cases {
		if err := fresh().Restore(tc.lower, tc.drop); err == nil {
			t.Errorf("%s: Restore accepted invalid state", tc.name)
		}
	}
	c := fresh()
	if err := c.Extend(5); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore([]float64{0.5}, []float64{0}); err == nil {
		t.Error("Restore accepted a non-empty curve")
	}
	// Empty state is a valid no-op restore.
	if err := fresh().Restore(nil, nil); err != nil {
		t.Errorf("empty restore rejected: %v", err)
	}
}

// TestCurveErrors: bad horizons and builder failures surface.
func TestCurveErrors(t *testing.T) {
	c := NewCurve(exactBuilder(0), false)
	if err := c.Extend(0); err == nil {
		t.Error("Extend(0) accepted")
	}
	boom := errors.New("boom")
	cf := NewCurve(func(int) (*Engine, error) { return nil, boom }, false)
	if err := cf.Extend(5); !errors.Is(err, boom) {
		t.Errorf("builder error lost: %v", err)
	}
}

// TestCurvePublish: a single-horizon publish runs only the horizon's own
// rung, stores the horizons of that rung it passes and no others, and
// every value it stores is the dense build's, bit for bit; a later dense
// Extend fills only the holes, and Restore round-trips the holes.
func TestCurvePublish(t *testing.T) {
	for _, tau := range []float64{0, 1e-30} {
		dense := NewCurve(exactBuilder(tau), false)
		if err := dense.Extend(200); err != nil {
			t.Fatal(err)
		}
		if pub, rep := dense.Work(); pub != 200 || rep != 240 {
			t.Fatalf("τ=%v: dense build to 200 took %d published + %d replayed steps, want 200 + 240", tau, pub, rep)
		}
		sparse := NewCurve(exactBuilder(tau), false)
		for _, k := range []int{150, 200, 140, 9} {
			if err := sparse.Publish(k); err != nil {
				t.Fatal(err)
			}
		}
		// Rung 256 stored 129..200 (150 cold, then 200 continuing the
		// engine, then 140 already on record); rung 16 stored 1..9.
		if pub, rep := sparse.Work(); pub != 72+9 || rep != 128 {
			t.Fatalf("τ=%v: publishes took %d published + %d replayed steps, want 81 + 128", tau, pub, rep)
		}
		same := func(c *Curve, h int) bool {
			return math.Float64bits(c.Lower(h)) == math.Float64bits(dense.Lower(h)) &&
				math.Float64bits(c.Upper(h)) == math.Float64bits(dense.Upper(h))
		}
		for h := 1; h <= 200; h++ {
			if want := h <= 9 || h > 128; sparse.Has(h) != want {
				t.Fatalf("τ=%v: Has(%d) = %v, want %v", tau, h, sparse.Has(h), want)
			}
			if sparse.Has(h) && !same(sparse, h) {
				t.Fatalf("τ=%v h=%d: published [%v,%v], dense [%v,%v]", tau, h, sparse.Lower(h), sparse.Upper(h), dense.Lower(h), dense.Upper(h))
			}
		}
		if sparse.Len() != 200 || !sparse.HasPrefix(9) || sparse.HasPrefix(10) {
			t.Fatalf("τ=%v: Len %d, HasPrefix(9) %v, HasPrefix(10) %v", tau, sparse.Len(), sparse.HasPrefix(9), sparse.HasPrefix(10))
		}

		lower, drop := sparse.State()
		restored := NewCurve(exactBuilder(tau), false)
		if err := restored.Restore(lower, drop); err != nil {
			t.Fatalf("τ=%v: Restore of a sparse state: %v", tau, err)
		}
		for _, c := range []*Curve{sparse, restored} {
			c.Release()
			if err := c.Extend(200); err != nil {
				t.Fatal(err)
			}
			for h := 1; h <= 200; h++ {
				if !same(c, h) {
					t.Fatalf("τ=%v h=%d: filled [%v,%v], dense [%v,%v]", tau, h, c.Lower(h), c.Upper(h), dense.Lower(h), dense.Upper(h))
				}
			}
		}
		// Filling the holes publishes each missing horizon once: rungs
		// 16 (steps 10..16), 32, 64 and 128 from step zero.
		if pub, rep := sparse.Work(); pub != 200 || rep != 128+9+16+32+64 {
			t.Fatalf("τ=%v: after the fill %d published + %d replayed steps, want 200 + 249", tau, pub, rep)
		}
	}

	// A fixed-geometry curve has one rung: Publish is Extend.
	g := Geometry{RMax: 32, SMin: -32, SMax: 32}
	fixed := NewCurve(builder(g, true, 0), true)
	if err := fixed.Publish(40); err != nil {
		t.Fatal(err)
	}
	if !fixed.HasPrefix(40) {
		t.Fatal("fixed-geometry Publish(40) left holes")
	}
	if err := NewCurve(exactBuilder(0), false).Publish(0); err == nil {
		t.Error("Publish(0) accepted")
	}
}
