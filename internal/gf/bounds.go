package gf

import (
	"fmt"
	"math"
)

// Bound1 evaluates the Section 5.1 machinery for a given (ǫ, qh): the
// dominating probability generating function Ĉ(Z) whose tail
// Σ_{t≥k} ĉ_t upper-bounds the probability that a k-slot window contains
// no uniquely honest Catalan slot.
type Bound1 struct {
	Epsilon float64
	Qh      float64 // probability of a uniquely honest slot
	CHat    Series  // Ĉ(Z) = (qh·ǫ/q)·Z / (1 − F(Z)), |x| = 0 case
	CTilde  Series  // C̃(Z) = (1−β)Ĉ(Z)/(1−βD(Z)), |x| → ∞ case
}

// NewBound1 builds the Bound 1 series to n coefficients.
//
// F(Z) = pZD(Z) + qh·Z·A(ZD(Z)) + qH·Z, with the four renewal cases of
// Eq. (2): ascend-and-redescend (p), succeed (qh·ǫ/q), false alarm
// (qh·p/q, dominated by A(ZD)), and multi-honest descent (qH).
func NewBound1(epsilon, qh float64, n int) (*Bound1, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("gf: epsilon %v outside (0,1)", epsilon)
	}
	p, q := (1-epsilon)/2, (1+epsilon)/2
	if qh <= 0 || qh > q {
		return nil, fmt.Errorf("gf: qh %v outside (0, q=%v]", qh, q)
	}
	qH := q - qh
	d, err := Descent(epsilon, n)
	if err != nil {
		return nil, err
	}
	g, err := AscentOfZDescent(epsilon, n)
	if err != nil {
		return nil, err
	}
	f := d.ShiftZ(1).Scale(p) // pZD
	f = f.Add(g.ShiftZ(1).Scale(qh))
	zOnly := NewSeries(n)
	if n >= 1 {
		zOnly[1] = qH
	}
	f = f.Add(zOnly)
	num := NewSeries(n)
	if n >= 1 {
		num[1] = qh * epsilon / q
	}
	cHat, err := num.DivOneMinus(f)
	if err != nil {
		return nil, err
	}
	beta := (1 - epsilon) / (1 + epsilon)
	cTilde, err := cHat.Scale(1 - beta).DivOneMinus(d.Scale(beta))
	if err != nil {
		return nil, err
	}
	return &Bound1{Epsilon: epsilon, Qh: qh, CHat: cHat, CTilde: cTilde}, nil
}

// Tail returns the Bound 1 upper bound on Pr[no uniquely honest Catalan
// slot in a k-slot window], under the worst-case |x| → ∞ prefix (the
// X∞-dominated initial reach). It requires k within the series truncation.
func (b *Bound1) Tail(k int) (float64, error) {
	if k > b.CTilde.Degree() {
		return 0, fmt.Errorf("gf: k=%d beyond truncation %d", k, b.CTilde.Degree())
	}
	return b.CTilde.TailFrom(k), nil
}

// Bound2 evaluates the Section 5.2 machinery for bivalent strings
// (qh = 0, consistent tie-breaking): M̂(Z) whose tail bounds the
// probability that a k-slot window contains no two consecutive Catalan
// slots.
type Bound2 struct {
	Epsilon float64
	MHat    Series // M̂(Z) = ǫD / (1 − (1−ǫ)Ê), |x| = 0 case
	MTilde  Series // (1−β)M̂/(1−βD), |x| → ∞ case
}

// NewBound2 builds the Bound 2 series to n coefficients.
//
// Ê(Z) = pZD(Z) + qZ·A(ZD(Z))/A(1) is the dominating epoch series: an
// epoch either returns to the origin from above (p·ZD) or ascends with
// certainty (normalization by A(1) = p/q) and then descends as many levels
// as the ascent took steps.
func NewBound2(epsilon float64, n int) (*Bound2, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("gf: epsilon %v outside (0,1)", epsilon)
	}
	p, q := (1-epsilon)/2, (1+epsilon)/2
	d, err := Descent(epsilon, n)
	if err != nil {
		return nil, err
	}
	g, err := AscentOfZDescent(epsilon, n)
	if err != nil {
		return nil, err
	}
	eHat := d.ShiftZ(1).Scale(p).Add(g.ShiftZ(1).Scale(q * q / p)) // q/A(1) = q²/p
	mHat, err := d.Scale(epsilon).DivOneMinus(eHat.Scale(1 - epsilon))
	if err != nil {
		return nil, err
	}
	beta := (1 - epsilon) / (1 + epsilon)
	mTilde, err := mHat.Scale(1 - beta).DivOneMinus(d.Scale(beta))
	if err != nil {
		return nil, err
	}
	return &Bound2{Epsilon: epsilon, MHat: mHat, MTilde: mTilde}, nil
}

// Tail returns the Bound 2 upper bound on Pr[no two consecutive Catalan
// slots in a k-slot window] under the worst-case |x| → ∞ prefix.
func (b *Bound2) Tail(k int) (float64, error) {
	if k > b.MTilde.Degree() {
		return 0, fmt.Errorf("gf: k=%d beyond truncation %d", k, b.MTilde.Degree())
	}
	return b.MTilde.TailFrom(k), nil
}

// closed-form evaluations of the walk series for real z within their radii.

// descentEval returns D(z) = (1 − sqrt(1 − 4pqz²)) / (2pz), valid for
// 0 < z < 1/sqrt(1−ǫ²).
func descentEval(epsilon, z float64) float64 {
	p, q := (1-epsilon)/2, (1+epsilon)/2
	disc := 1 - 4*p*q*z*z
	return (1 - math.Sqrt(disc)) / (2 * p * z)
}

// ascentEval returns A(z) = (1 − sqrt(1 − 4pqz²)) / (2qz).
func ascentEval(epsilon, z float64) float64 {
	p, q := (1-epsilon)/2, (1+epsilon)/2
	disc := 1 - 4*p*q*z*z
	return (1 - math.Sqrt(disc)) / (2 * q * z)
}

// R1 returns the radius of convergence of A(ZD(Z)) per Eq. (5):
// R1 = ((2/sqrt(1−ǫ²) − 1/(1+ǫ)) / (1+ǫ))^{1/2} = 1 + ǫ³/2 + O(ǫ⁴).
func R1(epsilon float64) float64 {
	return math.Sqrt((2/math.Sqrt(1-epsilon*epsilon) - 1/(1+epsilon)) / (1 + epsilon))
}

// fEval evaluates F(z) = pzD(z) + qh·z·A(zD(z)) + qH·z for z ∈ (0, R1).
func fEval(epsilon, qh, z float64) float64 {
	p, q := (1-epsilon)/2, (1+epsilon)/2
	qH := q - qh
	zd := z * descentEval(epsilon, z)
	return p*zd + qh*z*ascentEval(epsilon, zd) + qH*z
}

// DecayRateBound1 returns −log R with R = min(R1, R2), R2 the positive
// solution of F(z) = 1 found by bisection: the asymptotic per-slot decay
// rate of the Bound 1 tail, ĉ_k = O(R^{−k}). When F stays below 1 on
// [1, R1) (e.g. qH = 0) the rate is governed by R1 alone.
func DecayRateBound1(epsilon, qh float64) (float64, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return 0, fmt.Errorf("gf: epsilon %v outside (0,1)", epsilon)
	}
	r1 := R1(epsilon)
	lo, hi := 1.0, r1*(1-1e-12)
	if fEval(epsilon, qh, hi) < 1 {
		return math.Log(r1), nil
	}
	if fEval(epsilon, qh, lo) >= 1 {
		return 0, fmt.Errorf("gf: F(1) ≥ 1; no positive decay (qh=%v too small?)", qh)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if fEval(epsilon, qh, mid) < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Log(lo), nil
}

// DecayRateBound2 returns the per-slot decay rate of the Bound 2 tail.
// Section 5.2 shows (1−ǫ)Ê(z) < 1 throughout the convergence region, so
// the rate is −log R1 = ǫ³/2 + O(ǫ⁴).
func DecayRateBound2(epsilon float64) (float64, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return 0, fmt.Errorf("gf: epsilon %v outside (0,1)", epsilon)
	}
	return math.Log(R1(epsilon)), nil
}
