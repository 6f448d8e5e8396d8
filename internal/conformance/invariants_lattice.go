package conformance

import (
	"math"
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/lattice"
	"multihonest/internal/settlement"
)

// randParams draws a valid synchronous parameter point with a comfortable
// honest majority margin, the regime every engine is specified on.
func randParams(t *testing.T, r *rand.Rand) charstring.Params {
	t.Helper()
	alpha := 0.08 + 0.34*r.Float64()             // α ∈ (0.08, 0.42)
	ph := (1 - alpha) * (0.1 + 0.85*r.Float64()) // Pr[h] ∈ (0.1, 0.95)·(1−α)
	p, err := charstring.ParamsFromAlpha(alpha, ph)
	if err != nil {
		t.Fatalf("ParamsFromAlpha(%v, %v): %v", alpha, ph, err)
	}
	return p
}

func latticeInvariants() []Invariant {
	return []Invariant{
		{
			Name: "lattice-banded-equals-full",
			Statement: "On any geometry, stencil and initial mass, the banded " +
				"active-window sweep and the Full-mode full-grid sweep hold " +
				"bit-identical mass in every cell after every step.",
			Anchor: "lattice.Engine.Step (internal/lattice/engine.go)",
			Check:  checkLatticeBandedEqualsFull,
		},
		{
			Name: "dp-capped-equals-naive",
			Statement: "The capped banded settlement DP equals the paper's " +
				"uncapped full-grid sweep (ViolationProbabilityNaive) at every " +
				"parameter point and horizon.",
			Anchor: "settlement.Computer.ViolationProbability vs ViolationProbabilityNaive (internal/settlement/dp.go)",
			Check:  checkDPCappedEqualsNaive,
		},
		{
			Name: "dp-pruned-bracket-contains-exact",
			Statement: "For every pruning threshold τ > 0 the bracket " +
				"[lower, lower+dropped] contains the exact violation " +
				"probability, and τ = 0 collapses the bracket to it exactly.",
			Anchor: "lattice dropped-mass ledger (internal/lattice/engine.go Step prune pass)",
			Check:  checkDPPrunedBracket,
		},
		{
			Name: "dp-upper-dominates-exact",
			Statement: "The saturating StickyReach upper-bound curve dominates " +
				"the exact violation curve at every horizon and never exceeds 1.",
			Anchor: "settlement.Computer.UpperCurve (internal/settlement/dp.go)",
			Check:  checkDPUpperDominates,
		},
	}
}

// checkLatticeBandedEqualsFull seeds a banded and a Full engine with the
// same random stencil, geometry and initial mass and asserts cell-level
// bitwise equality after every step. Equality is exact, not approximate:
// the banded step's fused row pass forms each cell from the same terms in
// the same order as Full mode's accumulate path, cells outside a banded
// buffer's live region are zero, and 0 + x == x for x ≥ +0. Small trials
// hit the caps and boundary rows; large ones (up to 64 cells per side,
// mass seeded away from the caps) keep interior rows on the fused pass for
// many steps. Every banded engine is built after freeing a dirty engine of
// its geometry, so it runs on a recycled grid, and Mass reads stored cells
// directly, so any leftover of the dirty sweep would show in the
// comparison.
func checkLatticeBandedEqualsFull(t *testing.T, r *rand.Rand) {
	recycled := 0
	for trial := 0; trial < 28; trial++ {
		pa := 0.05 + 0.40*r.Float64()
		ph := 0.05 + 0.40*r.Float64()
		st := lattice.Stencil{PA: pa, Ph: ph, PH: 1 - pa - ph, StickyReach: r.Intn(2) == 0}
		large := trial >= 20
		side := func() int { return 3 + r.Intn(10) }
		if large {
			side = func() int { return 32 + r.Intn(33) }
		}
		g := lattice.Geometry{RMax: side(), SMin: -side(), SMax: side()}
		dirty, err := lattice.NewEngine(g, st, lattice.Options{Tau: 1e-12 * float64(r.Intn(2))})
		if err != nil {
			t.Fatalf("trial %d: dirty engine: %v", trial, err)
		}
		for i := 0; i < 8; i++ {
			dirty.Add(r.Intn(g.RMax+1), g.SMin+r.Intn(g.SMax-g.SMin+1), r.Float64())
		}
		for i := r.Intn(2 * g.RMax); i > 0; i-- {
			dirty.Step()
		}
		dirty.Free()
		banded, err := lattice.NewEngine(g, st, lattice.Options{})
		if err != nil {
			t.Fatalf("trial %d: banded engine: %v", trial, err)
		}
		if banded.Recycled() {
			recycled++
		}
		full, err := lattice.NewEngine(g, st, lattice.Options{Full: true})
		if err != nil {
			t.Fatalf("trial %d: full engine: %v", trial, err)
		}
		for i := 0; i < 1+r.Intn(6); i++ {
			rr := r.Intn(g.RMax + 1)
			ss := g.SMin + r.Intn(g.SMax-g.SMin+1)
			if large {
				rr = g.RMax/4 + r.Intn(g.RMax/2)
				ss = g.SMin/2 + r.Intn((g.SMax-g.SMin)/2)
			}
			m := r.Float64()
			banded.Add(rr, ss, m)
			full.Add(rr, ss, m)
		}
		steps := g.RMax + g.SMax - g.SMin + r.Intn(10)
		for step := 0; step < steps; step++ {
			banded.Step()
			full.Step()
			if banded.TailMass() != full.TailMass() {
				t.Fatalf("trial %d step %d: tail mass banded %v != full %v",
					trial, step, banded.TailMass(), full.TailMass())
			}
			if banded.Total() != full.Total() {
				t.Fatalf("trial %d step %d: total banded %v != full %v",
					trial, step, banded.Total(), full.Total())
			}
			for rr := 0; rr <= g.RMax; rr++ {
				for ss := g.SMin; ss <= g.SMax; ss++ {
					if b, f := banded.Mass(rr, ss), full.Mass(rr, ss); b != f {
						t.Fatalf("trial %d step %d cell (%d,%d): banded %v != full %v",
							trial, step, rr, ss, b, f)
					}
				}
			}
		}
		banded.Free()
	}
	// sync.Pool may drop a freed grid (the race detector drops a random
	// quarter on purpose), but never all of them.
	if recycled == 0 {
		t.Fatal("no banded engine ran on a recycled grid")
	}
}

func checkDPCappedEqualsNaive(t *testing.T, r *rand.Rand) {
	for trial := 0; trial < 4; trial++ {
		p := randParams(t, r)
		k := 8 + r.Intn(28)
		c := settlement.New(p)
		capped, err := c.ViolationProbability(k)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := c.ViolationProbabilityNaive(k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(capped-naive) > 1e-12 {
			t.Fatalf("trial %d (ǫ=%v ph=%v k=%d): capped %v != naive %v",
				trial, p.Epsilon, p.Ph, k, capped, naive)
		}
	}
}

func checkDPPrunedBracket(t *testing.T, r *rand.Rand) {
	for trial := 0; trial < 4; trial++ {
		p := randParams(t, r)
		k := 20 + r.Intn(40)
		tau := math.Pow(10, -6-9*r.Float64()) // τ ∈ [1e-15, 1e-6]
		c := settlement.New(p)
		exact, err := c.ViolationProbability(k)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := c.ViolationBracket(k, tau)
		if err != nil {
			t.Fatal(err)
		}
		const slack = 1e-12 // float noise allowance on a real-arithmetic claim
		if lo > exact+slack || hi < exact-slack {
			t.Fatalf("trial %d (τ=%.3g k=%d): bracket [%v, %v] misses exact %v",
				trial, tau, k, lo, hi, exact)
		}
		lo0, hi0, err := c.ViolationBracket(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if lo0 != hi0 || lo0 != exact {
			t.Fatalf("trial %d: τ=0 bracket [%v, %v] does not collapse to exact %v",
				trial, lo0, hi0, exact)
		}
	}
}

func checkDPUpperDominates(t *testing.T, r *rand.Rand) {
	for trial := 0; trial < 4; trial++ {
		p := randParams(t, r)
		k := 20 + r.Intn(40)
		c := settlement.New(p)
		exact, err := c.ViolationCurve(k)
		if err != nil {
			t.Fatal(err)
		}
		uc := c.UpperCurve(2 * k)
		if err := uc.Extend(k); err != nil {
			t.Fatal(err)
		}
		upper := uc.Values()
		for i := range exact {
			if upper[i] < exact[i]-1e-12 {
				t.Fatalf("trial %d horizon %d: upper %v < exact %v", trial, i+1, upper[i], exact[i])
			}
			if upper[i] > 1+1e-12 {
				t.Fatalf("trial %d horizon %d: upper %v exceeds 1", trial, i+1, upper[i])
			}
		}
	}
}
