package cp

import (
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/margin"
)

// uvpFreeWindowExact computes the longest UVP-free window using the exact
// Lemma 1 margin characterization for uniquely honest slots: slot s has
// the UVP iff w_s = h and µ_x(y) < 0 for every y with |y| ≥ 1 and
// |x| = s − 1. It is O(T²) where UVPFreeWindow's Catalan certificate is
// O(T), and it agrees with UVPFreeWindow under adversarial ties by
// Theorem 3.
func uvpFreeWindowExact(w charstring.String) int {
	hasUVP := func(s int) bool {
		if w[s-1] != charstring.UniqueHonest {
			return false
		}
		rho := margin.Rho(w[:s-1])
		mu := rho
		for _, sym := range w[s-1:] {
			if rho, mu = margin.StepMu(rho, mu, sym); mu >= 0 {
				return false
			}
		}
		return true
	}
	longest, last := 0, 0
	for s := 1; s <= len(w); s++ {
		if hasUVP(s) {
			longest = max(longest, s-last-1)
			last = s
		}
	}
	return max(longest, len(w)-last)
}

// someSlotUnsettled reports whether any slot of w fails to be k-settled in
// the margin sense (Observation 2 with Fact 6): whether there exists a
// decomposition w = xyz with |y| ≥ k+1 and µ_x(y) ≥ 0. This is the union
// event over s that Theorem 8's proof bounds by T·e^{−Ω(k)}.
func someSlotUnsettled(w charstring.String, k int) bool {
	for s := 1; s+k <= len(w); s++ {
		if margin.SettlementViolated(w, s, k) {
			return true
		}
	}
	return false
}

func TestUVPFreeWindow(t *testing.T) {
	// hhhhh: every slot uniquely honest Catalan? Walk strictly decreasing →
	// every slot has the UVP; longest gap 0.
	if got := UVPFreeWindow(charstring.MustParse("hhhhh"), false); got != 0 {
		t.Errorf("gap(hhhhh) = %d, want 0", got)
	}
	// AAAAA: no honest slot at all; the whole string is one gap.
	if got := UVPFreeWindow(charstring.MustParse("AAAAA"), false); got != 5 {
		t.Errorf("gap(AAAAA) = %d, want 5", got)
	}
	// hAAhh: UVP at slot 5 only (walk −1 0 1 0 −1; slot 1 right-Catalan
	// fails at S_3=1; slot 4: left needs S_4 < min(−1,..)=−1, S_4=0 ✗;
	// slot 5: S_5=−1... strict new min requires < −1 ✗). Recheck: prefix
	// minima: S_1=−1. S_5 = −1 not < −1. So NO UVP slot: gap = 5.
	if got := UVPFreeWindow(charstring.MustParse("hAAhh"), false); got != 5 {
		t.Errorf("gap(hAAhh) = %d, want 5", got)
	}
}

// TestExactMatchesCatalan: the Catalan-certificate window equals the exact
// Lemma 1 margin computation under adversarial ties (Theorem 3 is an
// equivalence for uniquely honest slots, and only those can carry the UVP).
func TestExactMatchesCatalan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	law := charstring.MustParams(0.2, 0.35)
	for trial := 0; trial < 40; trial++ {
		w := law.Sample(rng, 60)
		if a, b := UVPFreeWindow(w, false), uvpFreeWindowExact(w); a != b {
			t.Fatalf("window mismatch for %v: catalan %d, margin %d", w, a, b)
		}
	}
}

// TestConsistentTiesHelp: the consistent-ties certificate can only shrink
// UVP-free windows.
func TestConsistentTiesHelp(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	law := charstring.MustParams(0.3, 0) // bivalent: adversarial ties have no UVP at all
	sawImprovement := false
	for trial := 0; trial < 50; trial++ {
		w := law.Sample(rng, 60)
		adv := UVPFreeWindow(w, false)
		con := UVPFreeWindow(w, true)
		if con > adv {
			t.Fatalf("consistent ties enlarged the gap for %v", w)
		}
		if con < adv {
			sawImprovement = true
		}
		if adv != 60 {
			t.Fatalf("bivalent strings have no adversarial-ties UVP: gap %d", adv)
		}
	}
	if !sawImprovement {
		t.Error("consecutive Catalan pairs never appeared; parameters degenerate")
	}
}

func TestViolationPossibleBoundary(t *testing.T) {
	w := charstring.MustParse("hAAhh") // gap 5 (no UVP slot)
	if !ViolationPossible(w, 5, false) {
		t.Error("k=5 should be possible")
	}
	if ViolationPossible(w, 6, false) {
		t.Error("k=6 exceeds the string")
	}
}

// TestSomeSlotUnsettledImpliedByGap: a margin-level settlement violation
// requires the UVP-free window to reach k (implication 25 contrapositive).
func TestSomeSlotUnsettledImpliedByGap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	law := charstring.MustParams(0.1, 0.2)
	for trial := 0; trial < 60; trial++ {
		w := law.Sample(rng, 50)
		k := 4 + rng.Intn(8)
		if someSlotUnsettled(w, k) && UVPFreeWindow(w, false) < k {
			t.Fatalf("violation at k=%d with UVP gap %d in %v", k, UVPFreeWindow(w, false), w)
		}
	}
}
