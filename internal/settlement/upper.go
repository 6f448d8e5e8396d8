package settlement

import (
	"errors"
	"fmt"
	"math"

	"multihonest/internal/lattice"
)

// ViolationCurveUpper returns a rigorous upper bound on the violation
// probability for every horizon 1..k, computed on a horizon-independent
// O(cap²) grid instead of the exact chain's O(k²). Both chain coordinates
// saturate at ±cap in the conservative direction:
//
//   - reach saturates at cap from above and *stays there on honest steps*
//     (lattice.Stencil.StickyReach: a saturated reach only makes the r > 0
//     branch — the favorable one for the adversary — more likely),
//   - margin saturates at ±cap (the saturated value always dominates the
//     true one, and the final event s ≥ 0 is monotone in s).
//
// The induced over-count is bounded by the probability the true chain ever
// exceeds the cap, which decays geometrically as β^cap; CapForTarget picks
// a cap that keeps it negligible relative to a target probability. Use the
// exact ViolationCurve for reproducing Table 1; use this — or the
// incrementally extensible UpperCurve handle it wraps — for confirmation-
// depth planning at large horizons.
func (c *Computer) ViolationCurveUpper(k, cap int) ([]float64, error) {
	if k < 1 || cap < 2 {
		return nil, fmt.Errorf("settlement: invalid k=%d cap=%d", k, cap)
	}
	cv := c.UpperCurve(cap)
	defer cv.Release()
	if err := cv.Extend(k); err != nil {
		return nil, err
	}
	out := make([]float64, k)
	for t := 1; t <= k; t++ {
		out[t-1] = math.Min(cv.Lower(t), 1)
	}
	return out, nil
}

// ErrTargetUnreachable reports that a depth search exhausted its kmax
// with the certified failure bound still above the target — a legitimate
// outcome for slow-decay parameter points (the rate is Ω(min(ǫ³, ǫ²ph))),
// not a malformed query. Callers distinguish it with errors.Is; the
// oracle's HTTP layer maps it to its own status code.
var ErrTargetUnreachable = errors.New("settlement: target unreachable within kmax")

// DepthSearch is the doubling confirmation-depth search shared by
// core.Analyzer and the oracle service: the smallest k ≤ kmax whose
// certified upper bound (Curve.Upper over a saturating upper-bound chain)
// is at most target. extend(k) must return the — possibly cached — upper
// curve with every horizon 1..k available; the search calls it with the
// horizons 16, 32, 64, … (capped at kmax) and stops at the first span
// holding the answer, so it sweeps to the next power of two at or above
// the depth (at least 16), not further. The upper chain's geometry does
// not depend on the horizon, so an incrementally extensible curve pays
// every lattice step exactly once however many spans the search takes,
// and the readouts, hence the answer, do not depend on where the doubling
// starts. When even kmax does not reach the target it returns an error
// wrapping ErrTargetUnreachable. Callers validate their query first:
// target in (0, 1) and kmax ≥ 1.
func DepthSearch(extend func(k int) (*lattice.Curve, error), target float64, kmax int) (int, error) {
	scanned := 0
	var cv *lattice.Curve
	for span := min(depthSearchStart, kmax); ; span = min(span*2, kmax) {
		var err error
		if cv, err = extend(span); err != nil {
			return 0, err
		}
		for k := scanned + 1; k <= span; k++ {
			if cv.Upper(k) <= target {
				return k, nil
			}
		}
		scanned = span
		if span == kmax {
			break
		}
	}
	return 0, fmt.Errorf("%w: failure bound %.3g at k=%d still above target %.3g", ErrTargetUnreachable, cv.Upper(kmax), kmax, target)
}

// depthSearchStart is DepthSearch's first span: the lowest rung of the
// exact chain's capacity ladder.
const depthSearchStart = 16

// CapForTarget returns a saturation cap making the upper bound's slack
// negligible against a target probability: the chain escapes above level
// cap with probability O(β^cap), so cap is chosen with β^cap ≤ target/100,
// clamped to [48, 4096].
func (c *Computer) CapForTarget(target float64) int {
	beta := c.params.Beta()
	if target <= 0 || beta <= 0 || beta >= 1 {
		return 256
	}
	cap := int(math.Ceil(math.Log(target/100) / math.Log(beta)))
	return min(max(cap, 48), 4096)
}
