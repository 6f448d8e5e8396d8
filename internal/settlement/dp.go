// Package settlement computes exact settlement-violation probabilities for
// the abstract leader-election process, implementing the dynamic program of
// Section 6.6 of the paper over the joint (reach, relative margin) chain of
// Theorem 5.
//
// For i.i.d. characteristic symbols with law (pA, ph, pH), the probability
// that slot m+1 incurs a k-settlement violation equals Pr[µ_x(y) ≥ 0] for
// |x| = m, |y| = k. With |x| → ∞ the initial reach follows the dominating
// geometric law X∞ (Eq. 9); this is the quantity tabulated in Table 1.
//
// The DP state is capped without loss of exactness: both coordinates move
// by at most one per step, so pooling all reach mass ≥ k+1 (and margin mass
// ≥ k+1) into a saturated cell cannot affect any ==0 test or the final sign
// of the margin within a k-step horizon.
//
// Since the lattice refactor every sweep here — exact, paper-sized naive,
// finite-prefix, and saturating upper bound — is a thin configuration of
// the shared banded engine in internal/lattice (one transition stencil,
// active-window tracking, optional τ-pruning with a rigorous dropped-mass
// ledger). See DESIGN.md §6.
package settlement

import (
	"fmt"

	"multihonest/internal/charstring"
	"multihonest/internal/lattice"
	"multihonest/internal/walk"
)

// Computer evaluates settlement-violation probabilities for one parameter
// point. Construct with New; the zero value is not usable.
type Computer struct {
	params charstring.Params
}

// New returns a Computer for the (ǫ, ph)-Bernoulli law.
func New(p charstring.Params) *Computer { return &Computer{params: p} }

// Params returns the parameter point.
func (c *Computer) Params() charstring.Params { return c.params }

// stencil is the Section 6.6 transition law at this parameter point.
func (c *Computer) stencil(sticky bool) lattice.Stencil {
	ph, pH, pA := c.params.Probabilities()
	return lattice.Stencil{PA: pA, Ph: ph, PH: pH, StickyReach: sticky}
}

// exactEngine builds a lattice engine whose sweep is exact for every
// horizon t ≤ k: caps r ∈ [0, k+1], s ∈ [−k, k+1], diagonal initial mass
// (reach r implies margin r before any y-symbol arrives) from init, which
// must be a truncated reach law of length k+2 (index k+1 pooling the tail).
func (c *Computer) exactEngine(k int, init []float64, tau float64) (*lattice.Engine, error) {
	eng, err := lattice.NewEngine(
		lattice.Geometry{RMax: k + 1, SMin: -k, SMax: k + 1},
		c.stencil(false),
		lattice.Options{Tau: tau},
	)
	if err != nil {
		return nil, err
	}
	for r, mass := range init {
		eng.Add(r, r, mass)
	}
	return eng, nil
}

// stationaryEngine is exactEngine seeded with the |x| → ∞ law X∞.
func (c *Computer) stationaryEngine(k int, tau float64) (*lattice.Engine, error) {
	sr, err := walk.NewStationaryReach(c.params.Epsilon)
	if err != nil {
		return nil, err
	}
	return c.exactEngine(k, sr.Truncated(k+1), tau)
}

// Curve returns an incrementally extensible settlement curve under the
// |x| → ∞ initial law. τ = 0 is the exact mode; τ > 0 prunes band-edge
// cells with mass ≤ τ and brackets every horizon as
// [Lower, Lower+Dropped]. Extension walks lattice.Curve's canonical
// capacity ladder, so the value at each horizon is byte-identical across
// every curve at this parameter point regardless of extension history —
// the property the oracle tier's failover-answer-identity invariant pins.
func (c *Computer) Curve(tau float64) *lattice.Curve {
	return lattice.NewCurve(func(kCap int) (*lattice.Engine, error) {
		return c.stationaryEngine(kCap, tau)
	}, false)
}

// PrefixCurve is Curve with the exact finite-prefix initial law: the reach
// ρ(x) of an m-symbol i.i.d. prefix (walk.ReachLaw), converging to the
// X∞ curve as m → ∞ and dominated by it for every m.
func (c *Computer) PrefixCurve(m int, tau float64) *lattice.Curve {
	return lattice.NewCurve(func(kCap int) (*lattice.Engine, error) {
		init, err := walk.ReachLaw(c.params.Epsilon, m, kCap+1)
		if err != nil {
			return nil, err
		}
		return c.exactEngine(kCap, init, tau)
	}, false)
}

// UpperCurve returns the rigorous upper-bound curve as an incrementally
// extensible handle: the saturating chain of ViolationCurveUpper, whose
// geometry (±cap) does not depend on the horizon, so extending k → 2k
// continues the cached sweep — every lattice step is taken exactly once no
// matter how far the horizon grows (the doubling search of
// core.ConfirmationDepth relies on this).
func (c *Computer) UpperCurve(cap int) *lattice.Curve {
	return lattice.NewCurve(func(int) (*lattice.Engine, error) {
		sr, err := walk.NewStationaryReach(c.params.Epsilon)
		if err != nil {
			return nil, err
		}
		eng, err := lattice.NewEngine(
			lattice.Geometry{RMax: cap, SMin: -cap, SMax: cap},
			c.stencil(true),
			lattice.Options{},
		)
		if err != nil {
			return nil, err
		}
		for r, mass := range sr.Truncated(cap) {
			eng.Add(r, r, mass)
		}
		return eng, nil
	}, true)
}

// ViolationProbability returns Pr[µ_x(y) ≥ 0] for |y| = k under the
// |x| → ∞ initial reach law X∞ — the Table 1 quantity: the probability
// that a fixed slot, observed k slots later, is still unsettled against an
// optimal adversary.
func (c *Computer) ViolationProbability(k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("settlement: k = %d must be ≥ 1", k)
	}
	// Routed through the incremental curve so the point query runs the
	// same canonical-geometry rung as every other path — and only that
	// rung: the answer is byte-identical to ViolationCurve(k)[k-1] and to
	// an oracle-cached curve extended to k in any number of stages.
	cv := c.Curve(0)
	defer cv.Release()
	if err := cv.Publish(k); err != nil {
		return 0, err
	}
	return cv.Lower(k), nil
}

// ViolationCurve returns Pr[µ_x(y) ≥ 0] for every horizon |y| = 1..k (one
// sweep; horizon t read off after t steps), under the |x| → ∞ initial law.
// The result has length k with index t−1 holding horizon t.
//
// Note the per-horizon caps differ in principle; capping at the largest
// horizon k is exact for every t ≤ k (the cap argument only improves as the
// remaining horizon shrinks).
func (c *Computer) ViolationCurve(k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("settlement: k = %d must be ≥ 1", k)
	}
	cv := c.Curve(0)
	defer cv.Release()
	if err := cv.Extend(k); err != nil {
		return nil, err
	}
	return cv.Values(), nil
}

// ViolationBracket returns a rigorous bracket [lower, upper] containing
// the exact violation probability at horizon k, swept with τ-pruning.
// τ = 0 collapses the bracket to the exact value.
func (c *Computer) ViolationBracket(k int, tau float64) (lower, upper float64, err error) {
	if k < 1 {
		return 0, 0, fmt.Errorf("settlement: k = %d must be ≥ 1", k)
	}
	// Same canonical rung as ViolationCurveBracket's endpoint: the point
	// bracket is bit-equal to it (pinned by TestPropertyPrunedBracket-
	// ContainsExact), so cached and cold paths can never disagree.
	cv := c.Curve(tau)
	defer cv.Release()
	if err := cv.Publish(k); err != nil {
		return 0, 0, err
	}
	lower, upper = cv.Bracket(k)
	return lower, upper, nil
}

// ViolationCurveBracket is ViolationCurve with τ-pruning: it returns, for
// every horizon 1..k, a rigorous bracket [lower[t−1], upper[t−1]] that
// contains the exact value. With τ = 0 the two curves coincide (and equal
// ViolationCurve); with τ > 0 the sweep retires negligible band-edge mass
// into a ledger, trading a certified bracket width of at most the total
// pruned mass for a much smaller live window.
func (c *Computer) ViolationCurveBracket(k int, tau float64) (lower, upper []float64, err error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("settlement: k = %d must be ≥ 1", k)
	}
	cv := c.Curve(tau)
	defer cv.Release()
	if err := cv.Extend(k); err != nil {
		return nil, nil, err
	}
	lower = cv.Values()
	upper = make([]float64, k)
	for t := 1; t <= k; t++ {
		upper[t-1] = cv.Upper(t)
	}
	return lower, upper, nil
}

// ViolationCurveFinitePrefix is ViolationCurve with the exact finite-prefix
// initial law: the reach ρ(x) of an m-symbol i.i.d. prefix, computed by
// evolving the reflected-walk chain m steps from ρ(ε) = 0. It converges to
// ViolationCurve as m → ∞ and is dominated by it for every m.
func (c *Computer) ViolationCurveFinitePrefix(m, k int) ([]float64, error) {
	if k < 1 || m < 0 {
		return nil, fmt.Errorf("settlement: invalid m=%d k=%d", m, k)
	}
	cv := c.PrefixCurve(m, 0)
	defer cv.Release()
	if err := cv.Extend(k); err != nil {
		return nil, err
	}
	return cv.Values(), nil
}

// ViolationProbabilityNaive computes the same quantity as
// ViolationProbability on the paper's uncapped grid r ∈ [0, 2k],
// s ∈ [−2k, 2k] (Section 6.6), scanned in full every step (lattice Full
// mode). It exists to cross-validate the capped banded sweep and as the
// ablation baseline for BenchmarkDPNaive. The initial reach tail beyond 2k
// is pooled at 2k, exact for the same saturation reason.
func (c *Computer) ViolationProbabilityNaive(k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("settlement: k = %d must be ≥ 1", k)
	}
	sr, err := walk.NewStationaryReach(c.params.Epsilon)
	if err != nil {
		return 0, err
	}
	eng, err := lattice.NewEngine(
		lattice.Geometry{RMax: 2 * k, SMin: -2 * k, SMax: 2 * k},
		c.stencil(false),
		lattice.Options{Full: true},
	)
	if err != nil {
		return 0, err
	}
	for r, mass := range sr.Truncated(2 * k) {
		eng.Add(r, r, mass)
	}
	for t := 0; t < k; t++ {
		eng.Step()
	}
	return eng.TailMass(), nil
}
