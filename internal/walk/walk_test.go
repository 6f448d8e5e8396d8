package walk

import (
	"math"
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
)

// reflected returns X_t = S_t − M_t, the walk's height above its running
// minimum, for t = 0..T. X is the reach process ρ of Theorem 5 for strings
// read left to right.
func reflected(tr Trajectory) []int {
	x := make([]int, len(tr.S))
	m := tr.S[0]
	for t := range tr.S {
		m = min(m, tr.S[t])
		x[t] = tr.S[t] - m
	}
	return x
}

func TestTrajectoryBasics(t *testing.T) {
	w := charstring.MustParse("hAAhH")
	tr := FromString(w)
	if T := len(tr.S) - 1; T != 5 {
		t.Fatalf("len = %d", T)
	}
	wantS := []int{0, -1, 0, 1, 0, -1}
	for i, v := range wantS {
		if tr.At(i) != v {
			t.Fatalf("S = %v, want %v", tr.S, wantS)
		}
	}
	pm := tr.PrefixMin()
	wantPM := []int{0, -1, -1, -1, -1, -1}
	for i := range wantPM {
		if pm[i] != wantPM[i] {
			t.Fatalf("prefix min %v, want %v", pm, wantPM)
		}
	}
	sm := tr.SuffixMax()
	wantSM := []int{1, 1, 1, 1, 0, -1}
	for i := range wantSM {
		if sm[i] != wantSM[i] {
			t.Fatalf("suffix max %v, want %v", sm, wantSM)
		}
	}
	refl := reflected(tr)
	wantR := []int{0, 0, 1, 2, 1, 0}
	for i := range wantR {
		if refl[i] != wantR[i] {
			t.Fatalf("reflected %v, want %v", refl, wantR)
		}
	}
}

func TestStationaryReach(t *testing.T) {
	x, err := NewStationaryReach(0.2)
	if err != nil {
		t.Fatal(err)
	}
	// β = 0.8/1.2 = 2/3.
	if math.Abs(x.Beta-2.0/3) > 1e-12 {
		t.Fatalf("β = %v", x.Beta)
	}
	sum := 0.0
	for j := 0; j < 200; j++ {
		sum += x.PMF(j)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", sum)
	}
	if math.Abs(x.TailAtLeast(3)-math.Pow(2.0/3, 3)) > 1e-12 {
		t.Fatal("tail wrong")
	}
	tr := x.Truncated(5)
	tsum := 0.0
	for _, v := range tr {
		tsum += v
	}
	if math.Abs(tsum-1) > 1e-12 {
		t.Fatalf("truncated law sums to %v", tsum)
	}
	if _, err := NewStationaryReach(1.5); err == nil {
		t.Fatal("invalid epsilon accepted")
	}
}

// TestDominanceOverFiniteWalk: the reflected walk height at any finite time
// is stochastically dominated by X∞ ([4, Lemma 6.1]); verified empirically.
func TestDominanceOverFiniteWalk(t *testing.T) {
	const eps, T, n = 0.2, 200, 20000
	law := charstring.MustParams(eps, 0.3)
	x, _ := NewStationaryReach(eps)
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 64)
	for i := 0; i < n; i++ {
		w := law.Sample(rng, T)
		h := reflected(FromString(w))[T]
		if h < len(counts) {
			counts[h]++
		}
	}
	// Empirical Pr[X_T ≥ j] ≤ Pr[X∞ ≥ j] + sampling slack for a few j.
	cum := n
	for j := 0; j < 10; j++ {
		pEmp := float64(cum) / n
		if pEmp > x.TailAtLeast(j)+0.02 {
			t.Fatalf("dominance violated at j=%d: empirical %.4f > %.4f", j, pEmp, x.TailAtLeast(j))
		}
		cum -= counts[j]
	}
}

// TestGamblersRuin: the stationary reach ratio β = (1−ǫ)/(1+ǫ) is the
// gambler's-ruin probability p/q that an ǫ-downward-biased walk started at
// 0 ever reaches +1, i.e. A(1) for the ascent generating function of
// Section 5.
func TestGamblersRuin(t *testing.T) {
	x, err := NewStationaryReach(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.Beta-2.0/3) > 1e-12 {
		t.Fatalf("ruin = %v", x.Beta)
	}
}

// TestReachLaw: the banded finite-prefix reach law is a probability vector,
// dominated by X∞, monotone in m, and convergent to Truncated as m grows.
func TestReachLaw(t *testing.T) {
	// n = 48 keeps the truncation error β^n ≈ 1e-13 below the convergence
	// tolerance of the m → ∞ comparison.
	const eps, n = 0.3, 48
	x, err := NewStationaryReach(eps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReachLaw(0, 5, n); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := ReachLaw(eps, -1, n); err == nil {
		t.Fatal("negative m accepted")
	}
	zero, err := ReachLaw(eps, 0, n)
	if err != nil || zero[0] != 1 {
		t.Fatalf("m=0 law = %v (err %v): all mass must sit at 0", zero[:2], err)
	}
	var prevTail []float64
	for _, m := range []int{1, 4, 16, 64, 256, 1024} {
		law, err := ReachLaw(eps, m, n)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, v := range law {
			total += v
		}
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("m=%d: law sums to %.17g", m, total)
		}
		// Tail comparison: Pr[X_m ≥ j] nondecreasing in m and ≤ β^j.
		tail := make([]float64, n+1)
		acc := 0.0
		for j := n; j >= 0; j-- {
			acc += law[j]
			tail[j] = acc
		}
		for j := 0; j <= n; j++ {
			if tail[j] > x.TailAtLeast(j)+1e-12 {
				t.Fatalf("m=%d j=%d: tail %.6e above X∞ %.6e", m, j, tail[j], x.TailAtLeast(j))
			}
			if prevTail != nil && tail[j]+1e-12 < prevTail[j] {
				t.Fatalf("m=%d j=%d: tail %.6e not monotone in m (prev %.6e)", m, j, tail[j], prevTail[j])
			}
		}
		prevTail = tail
	}
	// At m = 1024 the law is within truncation error of X∞.
	limit := x.Truncated(n)
	for j := range limit {
		if math.Abs(prevTail[0]-1) > 1e-12 {
			t.Fatal("tail at 0 must be 1")
		}
		if math.Abs(ReachLawCell(prevTail, j)-limit[j]) > 1e-9 {
			t.Fatalf("m=1024 j=%d: %.12g != X∞ %.12g", j, ReachLawCell(prevTail, j), limit[j])
		}
	}
}

// ReachLawCell recovers the pmf entry j from a tail vector.
func ReachLawCell(tail []float64, j int) float64 {
	if j == len(tail)-1 {
		return tail[j]
	}
	return tail[j] - tail[j+1]
}
