package margin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"multihonest/internal/charstring"
)

func TestRhoByHand(t *testing.T) {
	cases := []struct {
		w    string
		want int
	}{
		{"", 0}, {"A", 1}, {"AA", 2}, {"h", 0}, {"Ah", 0}, {"AAh", 1},
		{"hA", 1}, {"hAh", 0}, {"HHHH", 0}, {"AHAH", 0}, {"hAAhhA", 1},
	}
	for _, c := range cases {
		if got := Rho(charstring.MustParse(c.w)); got != c.want {
			t.Errorf("ρ(%q) = %d, want %d", c.w, got, c.want)
		}
	}
}

// TestRhoMatchesReflectedWalk: ρ equals the reflected walk height X_t.
func TestRhoMatchesReflectedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	law := charstring.MustParams(0.1, 0.3)
	for trial := 0; trial < 30; trial++ {
		w := law.Sample(rng, 80)
		rho, walkS, minS := 0, 0, 0
		for i, s := range w {
			rho = StepRho(rho, s)
			walkS += s.Walk()
			minS = min(minS, walkS)
			if rho != walkS-minS {
				t.Fatalf("ρ trace diverges from reflected walk at %d of %v", i+1, w)
			}
		}
	}
}

func TestMarginByHand(t *testing.T) {
	// Worked examples from the development of Theorem 5.
	cases := []struct {
		w    string
		xlen int
		want int
	}{
		{"hH", 1, 0},   // ρ(xy)=0, µ=0, b=H → stays 0
		{"hh", 1, -1},  // b=h at ρ=µ=0 → −1
		{"hAAh", 0, 0}, // µ_ε: −1,0,1 then h: µ≠0 → 0
		{"hAAh", 3, 1}, // x=hAA: ρ=2=µ, h → 1
		{"hAhAhA", 0, 1},
		{"hhhAhA", 2, 1}, // Figure 3: x = hh admits an x-balanced fork (µ ≥ 0)
	}
	for _, c := range cases {
		if got := RelativeMargin(charstring.MustParse(c.w), c.xlen); got != c.want {
			t.Errorf("µ_{|x|=%d}(%q) = %d, want %d", c.xlen, c.w, got, c.want)
		}
	}
}

// TestMarginAtMostRho: µ_x(y) ≤ ρ(xy) always (margin is the second-best
// reach).
func TestMarginAtMostRho(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	law := charstring.MustParams(0.15, 0.2)
	f := func() bool {
		w := law.Sample(rng, 40)
		xlen := rng.Intn(len(w) + 1)
		return RelativeMargin(w, xlen) <= Rho(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestMarginMonotoneInOrder: if w ≤ v coordinatewise then every relative
// margin of w is at most that of v (more adversarial strings have larger
// margins).
func TestMarginMonotoneInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	law := charstring.MustParams(0.15, 0.4)
	f := func() bool {
		w := law.Sample(rng, 30)
		v := w.Clone()
		// upgrade a few symbols (h→H, H→A).
		for i := 0; i < 3; i++ {
			j := rng.Intn(len(v))
			switch v[j] {
			case charstring.UniqueHonest:
				v[j] = charstring.MultiHonest
			case charstring.MultiHonest:
				v[j] = charstring.Adversarial
			}
		}
		for xlen := 0; xlen <= len(w); xlen++ {
			if RelativeMargin(w, xlen) > RelativeMargin(v, xlen) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMarginTraceAndState(t *testing.T) {
	w := charstring.MustParse("hAAhH")
	want := []int{0, 1, 2, 1, 0}
	for i := range want {
		if got := RelativeMargin(w[:1+i], 1); got != want[i] {
			t.Fatalf("µ after %d symbols of y = %d, want %d", i, got, want[i])
		}
	}
	// The online state, started after x and stepped one symbol of y at a
	// time, follows the same trace.
	r := Rho(w[:1])
	st := State{Rho: r, Mu: r}
	for i, s := range w[1:] {
		st.Rho, st.Mu = StepMu(st.Rho, st.Mu, s)
		if st.Mu != want[i+1] {
			t.Fatalf("online state diverges at %d", i+1)
		}
	}
}

func TestSettlementVerdicts(t *testing.T) {
	// hAhAhA admits a balanced fork (Figure 2): slot 1 unsettled at any k ≤ 5.
	w := charstring.MustParse("hAhAhA")
	if !SettlementViolated(w, 1, 3) {
		t.Error("slot 1 of hAhAhA should be 3-violated")
	}
	// hhhhh settles immediately.
	w2 := charstring.MustParse("hhhhh")
	if SettlementViolated(w2, 2, 1) {
		t.Error("slot 2 of hhhhh should be settled")
	}
}

// TestViolationAtHorizonConsistency: the at-horizon event implies the
// any-horizon event.
func TestViolationAtHorizonConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	law := charstring.MustParams(0.1, 0.1)
	for trial := 0; trial < 200; trial++ {
		w := law.Sample(rng, 30)
		s, k := 1+rng.Intn(5), 3+rng.Intn(10)
		if s-1+k > len(w) {
			continue
		}
		// The at-horizon event: µ_x(y) ≥ 0 for |x| = s−1 and |y| = k exactly.
		if RelativeMargin(w[:s-1+k], s-1) >= 0 && !SettlementViolated(w, s, k-1) {
			t.Fatalf("horizon violation without windowed violation: w=%v s=%d k=%d", w, s, k)
		}
	}
}

func BenchmarkMarginRecurrence(b *testing.B) {
	w := charstring.MustParams(0.1, 0.3).Sample(rand.New(rand.NewSource(1)), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RelativeMargin(w, 100)
	}
}
