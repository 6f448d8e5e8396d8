package gf

import (
	"math"
	"math/rand"
	"testing"

	"multihonest/internal/catalan"
	"multihonest/internal/charstring"
)

// eval evaluates the truncated series at z by Horner's rule.
func eval(s Series, z float64) float64 {
	v := 0.0
	for i := len(s) - 1; i >= 0; i-- {
		v = v*z + s[i]
	}
	return v
}

func TestSeriesArithmetic(t *testing.T) {
	a := Series{1, 2, 3}
	b := Series{0, 1, 0}
	if got := a.Add(b); got[1] != 3 {
		t.Fatalf("Add = %v", got)
	}
	if got := a.ShiftZ(1); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ShiftZ = %v", got)
	}
	// 1/(1−Z) = 1 + Z + Z² + ...
	one := Series{1, 0, 0, 0}
	z := Series{0, 1, 0, 0}
	inv, err := one.DivOneMinus(z)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range inv {
		if v != 1 {
			t.Fatalf("geometric series wrong at %d: %v", i, inv)
		}
	}
	if _, err := one.DivOneMinus(Series{0.5, 0}); err == nil {
		t.Fatal("nonzero constant term accepted")
	}
}

// TestDescentMatchesClosedForm: series coefficients of D evaluated at small
// z must match the closed form (1 − sqrt(1−4pqz²))/(2pz).
func TestDescentMatchesClosedForm(t *testing.T) {
	const eps = 0.2
	d, err := Descent(eps, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0.1, 0.5, 0.9} {
		got := eval(d, z)
		want := descentEval(eps, z)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("D(%v) = %v, closed form %v", z, got, want)
		}
	}
	// D is a probability generating function: D(1) = 1 up to the
	// truncated tail mass (geometric at rate ~(1−ǫ²)^{1/2} per degree).
	if math.Abs(eval(d, 1)-1) > 1e-4 {
		t.Errorf("D(1) = %v", eval(d, 1))
	}
	// Odd series: even coefficients vanish.
	for i := 0; i <= d.Degree(); i += 2 {
		if d[i] != 0 {
			t.Fatalf("D has even coefficient at %d: %v", i, d[i])
		}
	}
}

// TestAscentDefective: A(1) = p/q (gambler's ruin). D(1) = 1, so the
// composed series G = A(ZD) reads A(1) at Z = 1.
func TestAscentDefective(t *testing.T) {
	const eps = 0.3
	g, err := AscentOfZDescent(eps, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p, q := (1-eps)/2, (1+eps)/2
	if got := eval(g, 1); math.Abs(got-p/q) > 1e-6 {
		t.Errorf("A(1) = %v, want p/q = %v", got, p/q)
	}
}

// TestAscentOfZDescent: G = A(ZD) must agree with numerically composing the
// closed forms.
func TestAscentOfZDescent(t *testing.T) {
	const eps = 0.25
	g, err := AscentOfZDescent(eps, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0.3, 0.7, 0.95} {
		want := ascentEval(eps, z*descentEval(eps, z))
		if got := eval(g, z); math.Abs(got-want) > 1e-8 {
			t.Errorf("G(%v) = %v, want %v", z, got, want)
		}
	}
}

// TestBound1IsPGF: Ĉ and C̃ are probability generating functions (partial
// sums converge to 1 from below, coefficients non-negative).
func TestBound1IsPGF(t *testing.T) {
	b, err := NewBound1(0.3, 0.3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Series{b.CHat, b.CTilde} {
		acc := 0.0
		for i, v := range s {
			if v < -1e-12 {
				t.Fatalf("negative coefficient at %d: %v", i, v)
			}
			acc += v
		}
		if acc > 1+1e-9 || acc < 0.999 {
			t.Fatalf("mass %v not ≈ 1", acc)
		}
	}
	// The |x| → ∞ series is dominated: its tails are at least Ĉ's.
	for _, k := range []int{10, 50, 200} {
		t1 := b.CHat.TailFrom(k)
		t2, _ := b.Tail(k)
		if t2+1e-12 < t1 {
			t.Fatalf("C̃ tail %v < Ĉ tail %v at k=%d", t2, t1, k)
		}
	}
}

// TestBound1UpperBoundsMonteCarlo: the analytic tail is a rigorous upper
// bound for the no-uniquely-honest-Catalan event measured by simulation.
func TestBound1UpperBoundsMonteCarlo(t *testing.T) {
	const eps, qh, k = 0.3, 0.3, 40
	b, err := NewBound1(eps, qh, k+1)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := b.Tail(k)
	if err != nil {
		t.Fatal(err)
	}
	law := charstring.MustParams(eps, qh)
	rng := rand.New(rand.NewSource(7))
	const n, lead, tail = 4000, 60, 120
	hits := 0
	for i := 0; i < n; i++ {
		w := law.Sample(rng, lead+k+tail)
		sc := catalan.Analyze(w)
		found := false
		for c := lead + 1; c <= lead+k; c++ {
			if sc.UniquelyHonestCatalan(c) {
				found = true
				break
			}
		}
		if !found {
			hits++
		}
	}
	emp := float64(hits) / n
	if emp > bound+3*math.Sqrt(bound*(1-bound)/n)+0.01 {
		t.Errorf("Bound 1 violated: empirical %.4f > bound %.4f", emp, bound)
	}
	if bound > 0.9 {
		t.Errorf("bound vacuous at these parameters: %v", bound)
	}
}

// TestBound2UpperBoundsMonteCarlo: same for consecutive Catalan pairs on
// bivalent strings.
func TestBound2UpperBoundsMonteCarlo(t *testing.T) {
	const eps, k = 0.5, 60
	b, err := NewBound2(eps, k+1)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := b.Tail(k)
	if err != nil {
		t.Fatal(err)
	}
	law := charstring.MustParams(eps, 0)
	rng := rand.New(rand.NewSource(8))
	const n, lead, tail = 4000, 40, 120
	hits := 0
	for i := 0; i < n; i++ {
		w := law.Sample(rng, lead+k+tail)
		sc := catalan.Analyze(w)
		found := false
		for c := lead + 1; c <= lead+k-1; c++ {
			if sc.ConsecutivePairAt(c) {
				found = true
				break
			}
		}
		if !found {
			hits++
		}
	}
	emp := float64(hits) / n
	if emp > bound+3*math.Sqrt(math.Max(bound, 0.01)*(1-bound)/n)+0.01 {
		t.Errorf("Bound 2 violated: empirical %.4f > bound %.4f", emp, bound)
	}
}

// TestDecayRates: rates are positive in the guaranteed regimes and scale
// like the paper's exponents: Bound 2's rate ≈ ǫ³/2 for small ǫ.
func TestDecayRates(t *testing.T) {
	r1, err := DecayRateBound1(0.3, 0.3)
	if err != nil || r1 <= 0 {
		t.Fatalf("bound1 rate %v err %v", r1, err)
	}
	r2, err := DecayRateBound2(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := r2 / (math.Pow(0.1, 3) / 2); ratio < 0.8 || ratio > 1.5 {
		t.Errorf("bound2 rate %v not ≈ ǫ³/2", r2)
	}
	// Larger qh cannot hurt the rate.
	rSmall, _ := DecayRateBound1(0.3, 0.05)
	rBig, _ := DecayRateBound1(0.3, 0.6)
	if rBig < rSmall {
		t.Errorf("rate decreased in qh: %v < %v", rBig, rSmall)
	}
}

// TestTailMonotone: tails decrease in k.
func TestTailMonotone(t *testing.T) {
	b, err := NewBound1(0.4, 0.4, 500)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.1
	for k := 1; k <= 500; k += 20 {
		tail, err := b.Tail(k)
		if err != nil {
			t.Fatal(err)
		}
		if tail > prev+1e-12 {
			t.Fatalf("tail increased at k=%d", k)
		}
		prev = tail
	}
}
