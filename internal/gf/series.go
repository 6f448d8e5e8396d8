// Package gf implements the generating-function machinery of Section 5 of
// the paper: truncated formal power series over float64, coefficient
// recurrences for the descent/ascent stopping-time series D(Z) and A(Z) of
// the ǫ-biased walk, the dominating series Ĉ(Z) (Bound 1: first uniquely
// honest Catalan slot) and M̂(Z) (Bound 2: first pair of consecutive
// Catalan slots), their |x| ≥ 1 corrections via X∞(D(Z)), and numeric
// decay-rate (radius-of-convergence) estimation.
//
// Coefficient tails of these series are rigorous upper bounds on the
// probability that a k-slot window lacks the respective Catalan structure,
// which by Theorems 3 and 4 upper-bounds settlement-violation probability.
package gf

import (
	"fmt"
	"math"
)

// Series is a truncated formal power series: Series[i] is the coefficient
// of Z^i. All operations truncate to the shorter relevant length.
type Series []float64

// NewSeries returns the zero series with n+1 coefficients (degrees 0..n).
func NewSeries(n int) Series { return make(Series, n+1) }

// Degree returns the truncation degree.
func (s Series) Degree() int { return len(s) - 1 }

// At returns the coefficient of Z^i, zero beyond the truncation.
func (s Series) At(i int) float64 {
	if i < 0 || i >= len(s) {
		return 0
	}
	return s[i]
}

// Add returns s + t truncated to the shorter operand.
func (s Series) Add(t Series) Series {
	n := min(len(s), len(t))
	out := make(Series, n)
	for i := 0; i < n; i++ {
		out[i] = s[i] + t[i]
	}
	return out
}

// Scale returns c·s.
func (s Series) Scale(c float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = c * v
	}
	return out
}

// ShiftZ returns Z^k · s truncated to s's degree.
func (s Series) ShiftZ(k int) Series {
	out := make(Series, len(s))
	for i := len(s) - 1; i >= k; i-- {
		out[i] = s[i-k]
	}
	return out
}

// DivOneMinus returns s / (1 − t) where t must have zero constant term;
// this is the fundamental "sum over restarts" operation of renewal
// arguments. The result has the shorter operand's degree.
func (s Series) DivOneMinus(t Series) (Series, error) {
	if t.At(0) != 0 {
		return nil, fmt.Errorf("gf: DivOneMinus requires zero constant term, got %v", t.At(0))
	}
	n := min(len(s), len(t))
	out := make(Series, n)
	for k := 0; k < n; k++ {
		v := s[k]
		for j := 1; j <= k; j++ {
			v += t[j] * out[k-j]
		}
		out[k] = v
	}
	return out, nil
}

// TailFrom returns 1 − Σ_{i<k} s_i, the mass at indices ≥ k of a
// probability generating function (one whose coefficients sum to 1).
// Values are clamped at 0 to absorb floating-point residue.
func (s Series) TailFrom(k int) float64 {
	acc := 0.0
	for i := 0; i < k && i < len(s); i++ {
		acc += s[i]
	}
	return math.Max(0, 1-acc)
}

// solveQuadraticFixpoint returns the unique power-series solution of
//
//	G = U + V·G²
//
// where val(V) + 2·val(G) ≥ val(G) + 1 guarantees well-foundedness; it
// suffices that V has zero constant term (our uses have val(V) ∈ {1, 2}).
// This is the shape of the descent/ascent equations D = qZ + pZD²,
// A = pZ + qZA², and of the composed series G = A(ZD) which satisfies
// G = p·(ZD) + q·(ZD)·G².
func solveQuadraticFixpoint(u, v Series, n int) (Series, error) {
	if v.At(0) != 0 {
		return nil, fmt.Errorf("gf: fixpoint requires val(V) ≥ 1")
	}
	g := NewSeries(n)
	sq := NewSeries(n) // running G², finalized for indices ≤ (last computed)+val(V)
	for k := 0; k <= n; k++ {
		val := u.At(k)
		for j := 1; j <= k; j++ {
			if vj := v.At(j); vj != 0 {
				val += vj * sq[k-j]
			}
		}
		g[k] = val
		if val != 0 {
			// Fold g_k into the running square: pairs (k, b) for b ≤ k.
			for b := 0; b <= k && k+b <= n; b++ {
				if b == k {
					sq[2*k] += val * val
				} else if g[b] != 0 {
					sq[k+b] += 2 * val * g[b]
				}
			}
		}
	}
	return g, nil
}

// Descent returns the first-descent generating function D(Z) of the
// ǫ-biased walk to n coefficients: D = qZ + pZD², the probability
// generating function of the time for the walk to first reach −1.
func Descent(epsilon float64, n int) (Series, error) {
	p, q := (1-epsilon)/2, (1+epsilon)/2
	u := NewSeries(n)
	if n >= 1 {
		u[1] = q
	}
	v := NewSeries(n)
	if n >= 1 {
		v[1] = p
	}
	return solveQuadraticFixpoint(u, v, n)
}

// AscentOfZDescent returns G(Z) = A(Z·D(Z)), the series of "ascend once,
// then descend as many levels as the ascent took steps" used by both
// bounds. It is computed from its own functional equation
// G = p·(ZD) + q·(ZD)·G² rather than by composition.
func AscentOfZDescent(epsilon float64, n int) (Series, error) {
	d, err := Descent(epsilon, n)
	if err != nil {
		return nil, err
	}
	p, q := (1-epsilon)/2, (1+epsilon)/2
	zd := d.ShiftZ(1)
	return solveQuadraticFixpoint(zd.Scale(p), zd.Scale(q), n)
}
