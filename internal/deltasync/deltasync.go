// Package deltasync implements the Δ-synchronous analysis of Section 8 of
// the paper: semi-synchronous characteristic strings over {⊥, h, H, A}, the
// reduction map ρ_Δ (Definition 22) that collapses them to synchronous
// strings, the induced i.i.d. law (Proposition 4 / Eq. 22), the Theorem 7
// parameter condition (Eq. 20), and the walk test of Bound 3 certifying
// (k, Δ)-settlement (Lemma 2).
package deltasync

import (
	"fmt"
	"math"

	"multihonest/internal/catalan"
	"multihonest/internal/charstring"
	"multihonest/internal/walk"
)

// Reduce applies the reduction map ρ_Δ of Definition 22 to a
// semi-synchronous string: empty slots are deleted, and an honest slot is
// demoted to adversarial unless it is followed by at least Δ slots from
// {⊥, A} (a "quiet period" long enough for its block to reach everyone
// before the next honest block).
//
// It returns the reduced synchronous string together with the slot map π:
// position i (1-based) of the reduced string corresponds to slot pi[i-1] of
// the original string.
func Reduce(w charstring.String, delta int) (charstring.String, []int, error) {
	if delta < 0 {
		return nil, nil, fmt.Errorf("deltasync: negative delta %d", delta)
	}
	if !w.SemiSync() {
		return nil, nil, fmt.Errorf("deltasync: string contains invalid symbols")
	}
	out := make(charstring.String, 0, len(w))
	pi := make([]int, 0, len(w))
	for i, s := range w {
		switch s {
		case charstring.Empty:
			continue
		case charstring.Adversarial:
			out = append(out, charstring.Adversarial)
		case charstring.UniqueHonest, charstring.MultiHonest:
			if quietAfter(w, i, delta) {
				out = append(out, s)
			} else {
				out = append(out, charstring.Adversarial)
			}
		}
		pi = append(pi, i+1)
	}
	return out, pi, nil
}

// quietAfter reports whether the Δ symbols following index i (0-based) are
// all in {⊥, A}: the condition {⊥, A}^Δ ⪯ w-suffix of Definition 22.
// An honest slot within Δ of the string's end fails the test and is demoted
// (Definition 22 requires a full length-Δ quiet prefix of the suffix); this
// is the "distortion" of the trailing Δ reduced symbols that Proposition 4
// sets aside.
func quietAfter(w charstring.String, i, delta int) bool {
	if i+delta >= len(w) {
		return false
	}
	for j := i + 1; j <= i+delta; j++ {
		if w[j].Honest() {
			return false
		}
	}
	return true
}

// InducedParams returns the i.i.d. law of Proposition 4 / Eq. (22): with
// f = 1 − p⊥ and β = (1−f)^Δ,
//
//	Pr[h] = ph·β/f,  Pr[H] = pH·β/f,  Pr[A] = 1 − β + pA·β/f,
//
// valid for all but the last Δ symbols of the reduction.
//
// Note a subtlety in the paper: this law corresponds to Proposition 4's
// proof, which demotes an honest slot unless the next Δ slots are all
// empty; Definition 22's reduction map (implemented by Reduce) keeps the
// slot honest when the next Δ slots are merely free of honest leaders
// ({⊥, A}^Δ). The Eq. (22) law is therefore a conservative (stochastically
// more adversarial) description of Reduce's output — the safe direction
// for Theorem 7's bound.
func InducedParams(s charstring.SemiSyncParams, delta int) (ph, pH, pA float64) {
	f := s.ActiveRate()
	beta := math.Pow(1-f, float64(delta))
	ph = s.Ph * beta / f
	pH = s.PH * beta / f
	pA = 1 - beta + s.PA*beta/f
	return ph, pH, pA
}

// MaxEpsilon returns the largest ǫ for which the Theorem 7 parameter
// condition (20)
//
//	pA·β/f + (1 − β) ≤ (1 − ǫ)/2,  β = (1−f)^Δ,
//
// holds, i.e. the largest honest advantage ǫ with which the reduced string
// satisfies the (ǫ, ·)-Bernoulli condition: ǫ = 1 − 2(pA·β/f + 1 − β).
// It is ≤ 0 when the delay swamps the honest advantage.
func MaxEpsilon(s charstring.SemiSyncParams, delta int) float64 {
	f := s.ActiveRate()
	beta := math.Pow(1-f, float64(delta))
	return 1 - 2*(s.PA*beta/f+(1-beta))
}

// Settled reports whether the event E of Lemma 2 certifies slot s of the
// semi-synchronous string w to be (k′, Δ)-settled, where k′ counts blocks
// after s: there is a uniquely honest slot c′ in the reduced string,
// Catalan in the reduced string, lying in the k-slot reduced window
// starting at π(s), whose walk margin satisfies
// S_{c′+k+i} ≤ S_{c′} − Δ for all i ≥ 0 within the string.
//
// The walk-margin condition is what lets the synchronous Catalan barrier
// survive the Δ relabeling slack. Settled is conservative (a certificate):
// it never reports a violated slot as settled.
func Settled(w charstring.String, s, k, delta int) (bool, error) {
	if s < 1 || s > len(w) {
		return false, fmt.Errorf("deltasync: slot %d outside [1,%d]", s, len(w))
	}
	red, pi, err := Reduce(w, delta)
	if err != nil {
		return false, err
	}
	// Locate π(s): the reduced index of slot s (s must be non-empty).
	ps := -1
	for i, orig := range pi {
		if orig == s {
			ps = i + 1
			break
		}
		if orig > s {
			break
		}
	}
	if ps < 0 {
		return false, fmt.Errorf("deltasync: slot %d is empty; settlement queries need a leader slot", s)
	}
	sc := catalan.Analyze(red)
	tr := walk.FromString(red)
	sm := tr.SuffixMax()
	for c := ps; c <= min(ps+k-1, len(red)); c++ {
		if red[c-1] != charstring.UniqueHonest || !sc.Catalan(c) {
			continue
		}
		// Margin condition: the walk after c+k never climbs within Δ of S_c.
		idx := c + k
		if idx >= len(sm) {
			continue // not enough future to certify
		}
		if sm[idx] <= tr.At(c)-delta {
			return true, nil
		}
	}
	return false, nil
}
