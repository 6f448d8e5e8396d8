package charstring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	for _, text := range []string{"", "h", "hAhAhHAAH", "HHHH", "AAAA", "_h_HA"} {
		w, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if got := w.String(); got != text {
			t.Errorf("round trip %q -> %q", text, got)
		}
	}
	if _, err := Parse("hxA"); err == nil {
		t.Error("Parse accepted invalid rune")
	}
}

func TestSymbolPredicates(t *testing.T) {
	cases := []struct {
		s                 Symbol
		honest, sync, ssy bool
		walk              int
	}{
		{UniqueHonest, true, true, true, -1},
		{MultiHonest, true, true, true, -1},
		{Adversarial, false, true, true, +1},
		{Empty, false, false, true, 0},
		{Symbol(0), false, false, false, 0},
	}
	for _, c := range cases {
		if c.s.Honest() != c.honest || c.s.ValidSync() != c.sync || c.s.ValidSemiSync() != c.ssy || c.s.Walk() != c.walk {
			t.Errorf("predicates wrong for %v", c.s)
		}
	}
}

func TestCountsAndHeaviness(t *testing.T) {
	w := MustParse("hAhAhHAAH")
	if got := w.Count(Adversarial); got != 4 {
		t.Errorf("#A = %d, want 4", got)
	}
	if got := w.HonestCount(); got != 5 {
		t.Errorf("#h+#H = %d, want 5", got)
	}
	if !w.HHHeavy() {
		t.Error("hAhAhHAAH should be hH-heavy (5 > 4)")
	}
	if !w.IntervalAHeavy(2, 4) { // A h A: 2 vs 1
		t.Error("[2,4] should be A-heavy")
	}
	if w.CountInterval(6, 9, MultiHonest) != 2 {
		t.Error("#H([6,9]) should be 2")
	}
}

func TestPartialOrderAndDominance(t *testing.T) {
	x := MustParse("hHA")
	y := MustParse("HHA")
	z := MustParse("hHh")
	if !x.Leq(y) || y.Leq(x) {
		t.Error("hHA ≤ HHA expected, not conversely")
	}
	if x.Leq(z) || z.Leq(x) == false && false {
		t.Error("unreachable")
	}
	if z.Leq(x) != true {
		t.Error("hHh ≤ hHA (h < A in final position)")
	}
	if x.Leq(MustParse("hH")) {
		t.Error("different lengths are incomparable")
	}
}

func TestPrefixAndRelax(t *testing.T) {
	w := MustParse("hAhH")
	if !MustParse("hA").IsPrefixOf(w) || MustParse("hh").IsPrefixOf(w) {
		t.Error("prefix check wrong")
	}
	r := w.Relax()
	if r.String() != "HAHH" {
		t.Errorf("Relax = %v", r)
	}
	if !w.Leq(r) {
		t.Error("w ≤ Relax(w) must hold")
	}
}

func TestWalks(t *testing.T) {
	w := MustParse("hAA_h")
	got := w.Walks()
	want := []int{0, -1, 0, 1, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Walks = %v, want %v", got, want)
		}
	}
}

func TestParamsAccounting(t *testing.T) {
	p := MustParams(0.2, 0.3)
	ph, pH, pA := p.Probabilities()
	if pA != 0.4 {
		t.Errorf("pA = %v", pA)
	}
	if s := ph + pH + pA; s < 0.999999 || s > 1.000001 {
		t.Errorf("probabilities sum to %v", s)
	}
	if _, err := NewParams(0.2, 0.7); err == nil {
		t.Error("ph beyond (1+ǫ)/2 accepted")
	}
	if _, err := ParamsFromAlpha(0.6, 0.1); err == nil {
		t.Error("alpha ≥ 1/2 accepted")
	}
}

// TestSampleFrequencies checks the sampler's law via quick property plus a
// frequency check.
func TestSampleFrequencies(t *testing.T) {
	p := MustParams(0.2, 0.25)
	rng := rand.New(rand.NewSource(1))
	w := p.Sample(rng, 200000)
	frac := func(s Symbol) float64 { return float64(w.Count(s)) / float64(len(w)) }
	if a := frac(Adversarial); a < 0.39 || a > 0.41 {
		t.Errorf("empirical pA = %v, want ≈ 0.4", a)
	}
	if h := frac(UniqueHonest); h < 0.24 || h > 0.26 {
		t.Errorf("empirical ph = %v, want ≈ 0.25", h)
	}
}

// TestLeqTransitive is a quick-check property on the partial order.
func TestLeqTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func() String {
		w := make(String, 8)
		for i := range w {
			w[i] = Symbol(rng.Intn(3) + 1)
		}
		return w
	}
	f := func() bool {
		a, b, c := gen(), gen(), gen()
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			return false
		}
		return a.Leq(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// adaptiveSampler draws characteristic strings whose symbols need not be
// independent: at each slot the conditional adversarial probability may
// depend on the history but is bounded by pA, and conditioned on the slot
// being honest the probability of unique honesty is at least ph/(1−pA′)
// for the realized adversarial mass pA′.
//
// Such martingale-type laws are stochastically dominated by the
// (ǫ, ph)-Bernoulli law (Definition 6), so every bound proved for the
// Bernoulli law transfers (Theorem 1, second part). TestAdaptiveDominance
// exercises exactly that transfer: Decide is an arbitrary policy.
type adaptiveSampler struct {
	Base Params
	// Decide returns the conditional law for slot t given the history
	// prefix. The returned law must be dominated by Base's per-slot law:
	// pA′ ≤ pA and pA′ + pH′ ≤ pA + pH. Decide may be nil, in which case
	// the base law is used unchanged.
	Decide func(prefix String) (ph, pH, pA float64)
}

// Sample draws a length-T string under the adaptive law.
func (a adaptiveSampler) Sample(rng *rand.Rand, T int) String {
	w := make(String, 0, T)
	for t := 0; t < T; t++ {
		ph, pH, pA := a.Base.Probabilities()
		if a.Decide != nil {
			ph, pH, pA = a.Decide(w)
		}
		u := rng.Float64()
		switch {
		case u < pA:
			w = append(w, Adversarial)
		case u < pA+ph:
			w = append(w, UniqueHonest)
		default:
			_ = pH
			w = append(w, MultiHonest)
		}
	}
	return w
}

// TestAdaptiveDominance: an adaptive sampler that never exceeds the base
// adversarial rate produces strings whose adversarial count is
// stochastically dominated by the base law's.
func TestAdaptiveDominance(t *testing.T) {
	base := MustParams(0.2, 0.3)
	ad := adaptiveSampler{
		Base: base,
		Decide: func(prefix String) (float64, float64, float64) {
			// Less adversarial in even positions.
			if len(prefix)%2 == 0 {
				return 0.5, 0.3, 0.2
			}
			return base.Probabilities()
		},
	}
	rng := rand.New(rand.NewSource(9))
	const n, T = 4000, 50
	adCount, baseCount := 0, 0
	for i := 0; i < n; i++ {
		adCount += ad.Sample(rng, T).Count(Adversarial)
		baseCount += base.Sample(rng, T).Count(Adversarial)
	}
	if adCount >= baseCount {
		t.Errorf("adaptive sampler not dominated: %d ≥ %d adversarial slots", adCount, baseCount)
	}
}
