// Package catalan implements the Catalan-slot machinery of Section 3 of the
// paper: left-/right-Catalan slots, the Unique Vertex Property (UVP) they
// confer (Theorems 3 and 4), and the settlement certificates derived from
// them.
//
// A slot s of a characteristic string w is Catalan when every interval
// containing s has strictly more honest than adversarial slots. Catalan
// slots are barriers for the adversary: every chain viable after a Catalan
// slot contains a block from it. The package computes all Catalan slots of
// a string in O(T) via the biased walk (a strict-new-minimum /
// never-exceeded-again characterization).
package catalan

import (
	"multihonest/internal/charstring"
	"multihonest/internal/walk"
)

// Scan holds the per-slot Catalan classification of a characteristic string.
// Build one with Analyze; the zero value is empty.
type Scan struct {
	w     charstring.String
	left  []bool // left[s-1]: s is left-Catalan
	right []bool // right[s-1]: s is right-Catalan
}

// Analyze classifies every slot of w in O(T).
//
// With the walk S_t (+1 on A, −1 on h/H):
//   - s is left-Catalan  ⇔ S_s < min_{0 ≤ j < s} S_j,
//   - s is right-Catalan ⇔ S_r ≤ S_s for every r ∈ [s, T].
//
// Both follow from unwinding Definition 11: the interval [ℓ, s] is hH-heavy
// for all ℓ iff S_s undercuts every earlier prefix value, and [s, r] is
// hH-heavy for all r iff the walk never climbs back above S_{s−1} − 1 = S_s.
func Analyze(w charstring.String) *Scan {
	tr := walk.FromString(w)
	pmin := tr.PrefixMin()
	smax := tr.SuffixMax()
	sc := &Scan{w: w, left: make([]bool, len(w)), right: make([]bool, len(w))}
	for s := 1; s <= len(w); s++ {
		if !w[s-1].Honest() {
			continue
		}
		sc.left[s-1] = tr.At(s) < pmin[s-1]
		sc.right[s-1] = smax[s] <= tr.At(s)
	}
	return sc
}

// Len returns the string length T.
func (sc *Scan) Len() int { return len(sc.left) }

// LeftCatalan reports whether slot s (1-based) is left-Catalan in w.
func (sc *Scan) LeftCatalan(s int) bool { return s >= 1 && s <= len(sc.left) && sc.left[s-1] }

// RightCatalan reports whether slot s is right-Catalan in w.
func (sc *Scan) RightCatalan(s int) bool { return s >= 1 && s <= len(sc.right) && sc.right[s-1] }

// Catalan reports whether slot s is Catalan in w (both left- and
// right-Catalan, Definition 11).
func (sc *Scan) Catalan(s int) bool { return sc.LeftCatalan(s) && sc.RightCatalan(s) }

// Slots returns all Catalan slots of w in increasing order. The result is
// sized exactly (one counting pass, one allocation).
func (sc *Scan) Slots() []int {
	n := 0
	for s := 1; s <= sc.Len(); s++ {
		if sc.Catalan(s) {
			n++
		}
	}
	out := make([]int, 0, n)
	for s := 1; s <= sc.Len(); s++ {
		if sc.Catalan(s) {
			out = append(out, s)
		}
	}
	return out
}

// UniquelyHonestCatalan reports whether slot s is a uniquely honest Catalan
// slot, the certificate that s has the UVP under adversarial tie-breaking
// (Theorem 3).
func (sc *Scan) UniquelyHonestCatalan(s int) bool {
	return sc.Catalan(s) && sc.w.At(s) == charstring.UniqueHonest
}

// ConsecutivePairAt reports whether slots s and s+1 are both Catalan, the
// certificate that s has the UVP under the consistent tie-breaking axiom
// A0′ (Theorem 4; for s+1 = T the weaker bottleneck property holds at T).
func (sc *Scan) ConsecutivePairAt(s int) bool {
	return sc.Catalan(s) && sc.Catalan(s+1)
}

// HasUVP reports whether the scan certifies the Unique Vertex Property for
// slot s under the given tie-breaking model. Under adversarial ties the
// certificate is Theorem 3 (uniquely honest Catalan ⇔ UVP, an exact
// characterization); under consistent ties it is Theorem 4 applied in both
// directions around s (Catalan pair starting at s, giving s the UVP). The
// Theorem 3 certificate applies in both models.
func (sc *Scan) HasUVP(s int, consistentTies bool) bool {
	if sc.UniquelyHonestCatalan(s) {
		return true
	}
	if consistentTies && s+1 <= sc.Len() && sc.ConsecutivePairAt(s) {
		return true
	}
	return false
}
