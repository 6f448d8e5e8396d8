package catalan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"multihonest/internal/charstring"
	"multihonest/internal/margin"
)

func TestHandWorkedExample(t *testing.T) {
	// w = hAhAhHAAH (Figure 1's string): walk −1 0 −1 0 −1 −2 −1 0 −1.
	// Strict new minima: slots 1, 6; never-exceeded-afterwards: S_r ≤ S_s
	// for slots 6 (S=−2, suffix max −1? no: S_7=−1 > −2) — so check below.
	w := charstring.MustParse("hAhAhHAAH")
	sc := Analyze(w)
	// Slot 1: left-Catalan (S_1 = −1 < 0). Right: S_r ≤ −1 for r ≥ 1 fails
	// at S_2=0. Slot 6: left (S_6 = −2 < min −1 ✓); right: S_8 = 0 > −2 ✗.
	// Slot 9: S_9 = −1, prefix min before is −2 ✗. So no Catalan slots.
	if got := sc.Slots(); len(got) != 0 {
		t.Errorf("Catalan slots of %v = %v, want none", w, got)
	}
	if !sc.LeftCatalan(1) || !sc.LeftCatalan(6) || sc.LeftCatalan(9) {
		t.Error("left-Catalan classification wrong")
	}

	// hhAhh: walk −1 −2 −1 −2 −3. Slot 1: left ✓ right (S_r ≤ −1 ∀r≥1) ✓.
	// Slot 2: left ✓ (−2 < −1), right: S_3 = −1 > −2 ✗. Slot 4: left ✓
	// (−2 < min=−2? prefix min over j<4 is −2, need strict < ✗).
	// Slot 5: −3 < −2 ✓ left; right trivially ✓.
	w2 := charstring.MustParse("hhAhh")
	sc2 := Analyze(w2)
	want := []int{1, 5}
	got := sc2.Slots()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Catalan slots of %v = %v, want %v", w2, got, want)
	}
}

// analyzeNaive classifies slots by checking every interval directly in
// O(T²) per slot (O(T³) total). It cross-validates Analyze and is the
// ablation baseline for BenchmarkCatalanScan.
func analyzeNaive(w charstring.String) *Scan {
	sc := &Scan{w: w, left: make([]bool, len(w)), right: make([]bool, len(w))}
	for s := 1; s <= len(w); s++ {
		if !w[s-1].Honest() {
			continue
		}
		left := true
		for l := 1; l <= s; l++ {
			if !w.IntervalHHHeavy(l, s) {
				left = false
				break
			}
		}
		right := true
		for r := s; r <= len(w); r++ {
			if !w.IntervalHHHeavy(s, r) {
				right = false
				break
			}
		}
		sc.left[s-1] = left
		sc.right[s-1] = right
	}
	return sc
}

// TestScanMatchesNaive cross-validates the O(T) walk characterization
// against the direct interval-counting definition.
func TestScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	law := charstring.MustParams(0.15, 0.3)
	for trial := 0; trial < 50; trial++ {
		w := law.Sample(rng, 60)
		fast, slow := Analyze(w), analyzeNaive(w)
		for s := 1; s <= len(w); s++ {
			if fast.LeftCatalan(s) != slow.LeftCatalan(s) || fast.RightCatalan(s) != slow.RightCatalan(s) {
				t.Fatalf("mismatch at slot %d of %v: fast (%v,%v) naive (%v,%v)",
					s, w, fast.LeftCatalan(s), fast.RightCatalan(s), slow.LeftCatalan(s), slow.RightCatalan(s))
			}
		}
	}
}

// TestTheorem3EquivalenceWithLemma1 is the paper's central equivalence: a
// uniquely honest slot is Catalan iff it has the UVP, where the UVP is
// independently decided by the Lemma 1 relative-margin characterization.
// lemma1UVP reports whether slot s has the Unique Vertex Property in w via
// the Lemma 1 characterization: w_s = h and µ_x(y) < 0 for every strict
// extension y (|y| ≥ 1) of the decomposition w = x y z with |x| = s − 1.
// Lemma 1 characterizes the UVP only for uniquely honest slots, so it
// returns false for any other symbol at s.
func lemma1UVP(w charstring.String, s int) bool {
	if s < 1 || s > len(w) || w[s-1] != charstring.UniqueHonest {
		return false
	}
	rho := margin.Rho(w[:s-1])
	mu := rho
	for _, sym := range w[s-1:] {
		rho, mu = margin.StepMu(rho, mu, sym)
		if mu >= 0 {
			return false
		}
	}
	return true
}

func TestTheorem3EquivalenceWithLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	laws := []charstring.Params{
		charstring.MustParams(0.2, 0.4),
		charstring.MustParams(0.1, 0.05),
		charstring.MustParams(0.4, 0.7),
	}
	checked := 0
	for _, law := range laws {
		for trial := 0; trial < 40; trial++ {
			w := law.Sample(rng, 50)
			sc := Analyze(w)
			for s := 1; s <= len(w); s++ {
				if w[s-1] != charstring.UniqueHonest {
					continue
				}
				checked++
				if sc.Catalan(s) != lemma1UVP(w, s) {
					t.Fatalf("Theorem 3 violated at slot %d of %v: Catalan=%v margin-UVP=%v",
						s, w, sc.Catalan(s), lemma1UVP(w, s))
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("too few uniquely honest slots checked: %d", checked)
	}
}

// TestCatalanNeighborsHonest: the slots adjacent to a Catalan slot must be
// honest (remark after Definition 11).
func TestCatalanNeighborsHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	law := charstring.MustParams(0.3, 0.3)
	for trial := 0; trial < 60; trial++ {
		w := law.Sample(rng, 40)
		sc := Analyze(w)
		for s := 1; s <= len(w); s++ {
			if !sc.Catalan(s) {
				continue
			}
			if !w[s-1].Honest() {
				t.Fatalf("Catalan slot %d not honest in %v", s, w)
			}
			if s > 1 && !w[s-2].Honest() {
				t.Fatalf("slot before Catalan %d not honest in %v", s, w)
			}
			if s < len(w) && !w[s].Honest() {
				t.Fatalf("slot after Catalan %d not honest in %v", s, w)
			}
		}
	}
}

// TestMonotoneCatalan: replacing an A by an honest symbol can only create
// Catalan slots, never destroy them (quick property: Catalan set is
// antitone in the partial order).
func TestMonotoneCatalan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func() bool {
		w := charstring.MustParams(0.2, 0.3).Sample(rng, 30)
		sc := Analyze(w)
		// Demote one adversarial slot to honest.
		idx := -1
		for i, s := range w {
			if s == charstring.Adversarial {
				idx = i
				break
			}
		}
		if idx < 0 {
			return true
		}
		v := w.Clone()
		v[idx] = charstring.MultiHonest
		sv := Analyze(v)
		for s := 1; s <= len(w); s++ {
			if s-1 == idx {
				continue
			}
			if sc.Catalan(s) && !sv.Catalan(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSettledByWindow: a slot is certified k-settled by a UVP slot in the
// window [s, s+k−1] (Theorem 3 with implication (1)). In hhAhh the
// certificates are exactly slots 1 and 5, so slot 1 is settled by its own
// UVP, window [2,3] certifies nothing and window [2,5] reaches slot 5.
func TestSettledByWindow(t *testing.T) {
	w := charstring.MustParse("hhAhh")
	sc := Analyze(w)
	for s := 1; s <= len(w); s++ {
		if want := s == 1 || s == 5; sc.HasUVP(s, false) != want {
			t.Errorf("UVP certificate at slot %d = %v, want %v", s, !want, want)
		}
	}
}

// TestConsecutivePairUVP: under consistent ties a Catalan pair certifies
// the first slot of the pair even when multiply honest (Theorem 4).
func TestConsecutivePairUVP(t *testing.T) {
	// HHHH: walk −1..−4: every slot left-Catalan (strict minima) and
	// right-Catalan (suffix maxima equal S_s). All pairs consecutive.
	w := charstring.MustParse("HHHH")
	sc := Analyze(w)
	for s := 1; s <= 3; s++ {
		if !sc.ConsecutivePairAt(s) {
			t.Errorf("pair at %d missing", s)
		}
		if !sc.HasUVP(s, true) {
			t.Errorf("consistent-ties UVP at %d missing", s)
		}
		if sc.HasUVP(s, false) {
			t.Errorf("adversarial-ties UVP at %d should be absent (no h slots)", s)
		}
	}
}

func BenchmarkCatalanScan(b *testing.B) {
	w := charstring.MustParams(0.2, 0.3).Sample(rand.New(rand.NewSource(1)), 10000)
	b.Run("walk-O(T)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Analyze(w)
		}
	})
	b.Run("naive-O(T^3)", func(b *testing.B) {
		small := w[:300]
		for i := 0; i < b.N; i++ {
			analyzeNaive(small)
		}
	})
}
