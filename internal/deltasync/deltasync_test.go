package deltasync

import (
	"math"
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
)

func TestReduceByHand(t *testing.T) {
	// w = h _ _ A h h _ A with Δ = 2:
	// slot 1 (h): next 2 symbols are _,_ → stays h.
	// slot 4 (A): A.
	// slot 5 (h): next 2 are h,_ → honest within Δ → demoted A.
	// slot 6 (h): next 2 are _,A → quiet → h... but slot 6+2=8 ≤ len ✓.
	// slot 8 (A): A.
	w := charstring.MustParse("h__Ahh_A")
	red, pi, err := Reduce(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := red.String(); got != "hAAhA" {
		t.Fatalf("ρ_Δ = %q, want hAAhA", got)
	}
	wantPi := []int{1, 4, 5, 6, 8}
	for i := range wantPi {
		if pi[i] != wantPi[i] {
			t.Fatalf("π = %v, want %v", pi, wantPi)
		}
	}
}

func TestReduceDeltaZeroIsProjection(t *testing.T) {
	w := charstring.MustParse("h_H_A")
	red, _, err := Reduce(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if red.String() != "hHA" {
		t.Fatalf("Δ=0 reduction = %q", red.String())
	}
}

func TestReduceTrailingDistortion(t *testing.T) {
	// An honest slot within Δ of the end is demoted; one with a full quiet
	// window survives.
	w := charstring.MustParse("h__h")
	red, _, err := Reduce(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if red.String() != "hA" {
		t.Fatalf("ρ_Δ(h__h) = %q, want hA", red.String())
	}
}

// inducedParamsExact returns the exact i.i.d. law of the symbols produced
// by Reduce (Definition 22), away from the distorted trailing Δ symbols:
// an honest slot survives exactly when the next Δ slots carry no honest
// leader, which happens with probability β′ = (p⊥ + pA)^Δ ≥ (1−f)^Δ.
func inducedParamsExact(s charstring.SemiSyncParams, delta int) (ph, pH, pA float64) {
	f := s.ActiveRate()
	betaP := math.Pow(s.PEmpty+s.PA, float64(delta))
	ph = s.Ph * betaP / f
	pH = s.PH * betaP / f
	pA = 1 - ph - pH
	return ph, pH, pA
}

// TestInducedParamsMatchEmpirical: Proposition 4's law (22) matches
// simulated reductions (excluding the distorted tail).
func TestInducedParamsMatchEmpirical(t *testing.T) {
	sp, err := charstring.NewSemiSyncParams(0.8, 0.05, 0.05, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	const delta = 3
	ph, pH, pA := inducedParamsExact(sp, delta)
	if s := ph + pH + pA; math.Abs(s-1) > 1e-12 {
		t.Fatalf("induced law sums to %v", s)
	}
	// Eq. (22)'s conservative law must dominate the exact one: no more
	// honest mass, no less adversarial mass.
	phC, pHC, pAC := InducedParams(sp, delta)
	if phC > ph+1e-12 || pHC > pH+1e-12 || pAC < pA-1e-12 {
		t.Fatalf("Eq. (22) law (h=%v H=%v A=%v) not conservative vs exact (h=%v H=%v A=%v)",
			phC, pHC, pAC, ph, pH, pA)
	}
	rng := rand.New(rand.NewSource(11))
	counts := map[charstring.Symbol]int{}
	total := 0
	for trial := 0; trial < 300; trial++ {
		w := sp.Sample(rng, 2000)
		red, _, err := Reduce(w, delta)
		if err != nil {
			t.Fatal(err)
		}
		if len(red) <= delta {
			continue
		}
		for _, s := range red[:len(red)-delta] {
			counts[s]++
			total++
		}
	}
	check := func(name string, want float64, got int) {
		emp := float64(got) / float64(total)
		if math.Abs(emp-want) > 0.01 {
			t.Errorf("%s: empirical %.4f vs Proposition 4 %.4f", name, emp, want)
		}
	}
	check("ph", ph, counts[charstring.UniqueHonest])
	check("pH", pH, counts[charstring.MultiHonest])
	check("pA", pA, counts[charstring.Adversarial])
}

func TestCondition20(t *testing.T) {
	sp, _ := charstring.NewSemiSyncParams(0.9, 0.04, 0.03, 0.03)
	if eps := MaxEpsilon(sp, 2); eps < 0.1 {
		t.Errorf("condition (20) should hold at ǫ = 0.1 for mild delay and low adversarial stake: max ǫ = %v", eps)
	}
	if eps := MaxEpsilon(sp, 2); eps <= 0 {
		t.Errorf("max ǫ = %v should be positive", eps)
	}
	// Huge delay swamps the advantage.
	if eps := MaxEpsilon(sp, 200); eps > 0 {
		t.Errorf("max ǫ = %v should be negative at Δ=200", eps)
	}
}

// TestSettledMonotoneInDelta: a slot certified settled at delay Δ is also
// certified at any smaller delay (the walk-margin condition weakens).
func TestSettledMonotoneInDelta(t *testing.T) {
	sp, _ := charstring.NewSemiSyncParams(0.7, 0.15, 0.05, 0.10)
	rng := rand.New(rand.NewSource(13))
	const s, k = 5, 30
	for trial := 0; trial < 100; trial++ {
		w := sp.Sample(rng, 200)
		if w[s-1] == charstring.Empty {
			w[s-1] = charstring.UniqueHonest
		}
		ok3, err := Settled(w, s, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		ok1, err := Settled(w, s, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ok3 && !ok1 {
			t.Fatalf("settled at Δ=3 but not Δ=1 for %v", w)
		}
	}
}

func TestSettledRejectsEmptySlot(t *testing.T) {
	w := charstring.MustParse("_hA")
	if _, err := Settled(w, 1, 1, 0); err == nil {
		t.Error("settlement query on an empty slot must error")
	}
}

func TestReduceRejectsInvalid(t *testing.T) {
	if _, _, err := Reduce(charstring.String{charstring.Symbol(9)}, 1); err == nil {
		t.Error("invalid symbol accepted")
	}
	if _, _, err := Reduce(charstring.MustParse("h"), -1); err == nil {
		t.Error("negative delta accepted")
	}
}
