// Package walk provides the biased ±1 random-walk machinery underlying the
// paper's probabilistic analysis (Sections 4–5): prefix-sum walks over
// characteristic strings, running minima and maxima, the reflected walk
// X_t = S_t − M_t, and the dominating stationary law X∞ of Eq. (9).
package walk

import (
	"fmt"
	"math"

	"multihonest/internal/charstring"
)

// Trajectory is a realized walk S_0 = 0, S_t = S_{t−1} + step_t over T steps.
// It memoizes the running extrema needed by the Catalan-slot scans.
type Trajectory struct {
	// S[t] is the walk position after t steps; S[0] = 0. len(S) = T+1.
	S []int
}

// FromString builds the paper's walk over a characteristic string:
// step_t = +1 if w_t = A, −1 if w_t ∈ {h, H}, 0 if w_t = ⊥.
func FromString(w charstring.String) Trajectory {
	return Trajectory{S: w.Walks()}
}

// At returns S_t. It panics if t ∉ [0, T].
func (tr Trajectory) At(t int) int { return tr.S[t] }

// PrefixMin returns m where m[t] = min_{0≤j≤t} S_j for t = 0..T.
func (tr Trajectory) PrefixMin() []int {
	m := make([]int, len(tr.S))
	m[0] = tr.S[0]
	for t := 1; t < len(tr.S); t++ {
		m[t] = min(m[t-1], tr.S[t])
	}
	return m
}

// SuffixMax returns x where x[t] = max_{t≤j≤T} S_j for t = 0..T.
func (tr Trajectory) SuffixMax() []int {
	x := make([]int, len(tr.S))
	x[len(tr.S)-1] = tr.S[len(tr.S)-1]
	for t := len(tr.S) - 2; t >= 0; t-- {
		x[t] = max(x[t+1], tr.S[t])
	}
	return x
}

// StationaryReach is the dominating law X∞ of Eq. (9):
//
//	Pr[X∞ = j] = (1 − β) β^j,  β = (1 − ǫ)/(1 + ǫ).
//
// For every finite prefix length m, the reflected-walk height X_m is
// stochastically dominated by X∞ ([4, Lemma 6.1]); Table 1 and the |x| ≥ 1
// cases of Bounds 1–2 use X∞ as the initial-reach law.
type StationaryReach struct {
	Beta float64 // β ∈ [0, 1)
}

// NewStationaryReach builds X∞ for honest advantage ǫ.
func NewStationaryReach(epsilon float64) (StationaryReach, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return StationaryReach{}, fmt.Errorf("walk: epsilon %v outside (0,1)", epsilon)
	}
	return StationaryReach{Beta: (1 - epsilon) / (1 + epsilon)}, nil
}

// PMF returns Pr[X∞ = j].
func (x StationaryReach) PMF(j int) float64 {
	if j < 0 {
		return 0
	}
	return (1 - x.Beta) * math.Pow(x.Beta, float64(j))
}

// TailAtLeast returns Pr[X∞ ≥ j] = β^j.
func (x StationaryReach) TailAtLeast(j int) float64 {
	if j <= 0 {
		return 1
	}
	return math.Pow(x.Beta, float64(j))
}

// Truncated returns the probability vector (Pr[X∞ = 0], …, Pr[X∞ = n−1],
// Pr[X∞ ≥ n]) of length n+1: the exact law with all mass ≥ n pooled into
// the final entry. This is the exactness-preserving cap used by the
// settlement dynamic program.
func (x StationaryReach) Truncated(n int) []float64 {
	v := make([]float64, n+1)
	for j := 0; j < n; j++ {
		v[j] = x.PMF(j)
	}
	v[n] = x.TailAtLeast(n)
	return v
}

// ReachLaw returns the exact law of the reflected-walk height X_m after m
// i.i.d. steps from X_0 = 0, truncated to [0, n] with all mass ≥ n pooled in
// the final entry (the same exactness-preserving cap as Truncated). The
// result has length n+1. It converges to StationaryReach.Truncated(n) as
// m → ∞ and is stochastically dominated by it for every m.
//
// The evolution runs on a cap-free grid: after t steps the walk cannot
// exceed t, so a grid of size m+1 loses no trajectory, and the mass ≥ n is
// pooled once at the end. Saturating at n *during* the evolution would not
// be exact — a trajectory that crosses the cap and returns needs several
// down-steps to re-enter [0, n), and clamping it at n lets it leak back
// into the low-reach cells too early. (The conformance fuzz target
// FuzzDPvsMC caught exactly that bias at small n.)
func ReachLaw(epsilon float64, m, n int) ([]float64, error) {
	if _, err := NewStationaryReach(epsilon); err != nil {
		return nil, err
	}
	if m < 0 || n < 1 {
		return nil, fmt.Errorf("walk: invalid reach-law m=%d n=%d", m, n)
	}
	pUp := (1 - epsilon) / 2
	pDown := (1 + epsilon) / 2
	cur := make([]float64, m+1)
	next := make([]float64, m+1)
	cur[0] = 1
	hi := 0 // largest index with nonzero mass; never exceeds the step count
	for t := 0; t < m; t++ {
		nextHi := min(hi+1, m)
		for i := 0; i <= nextHi; i++ {
			next[i] = 0
		}
		for r := 0; r <= hi; r++ {
			mass := cur[r]
			if mass == 0 {
				continue
			}
			// float64(...) rounds each product before the add, so no
			// architecture fuses the two into one FMA: the law, and the
			// DP it seeds, are bitwise the same on every GOARCH.
			next[min(r+1, m)] += float64(mass * pUp)
			next[max(r-1, 0)] += float64(mass * pDown)
		}
		for nextHi > 0 && next[nextHi] == 0 {
			nextHi--
		}
		hi = nextHi
		cur, next = next, cur
	}
	out := make([]float64, n+1)
	for i := 0; i <= hi; i++ {
		out[min(i, n)] += cur[i]
	}
	return out, nil
}
