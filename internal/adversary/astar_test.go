package adversary

import (
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/fork"
	"multihonest/internal/margin"
)

// TestAStarCanonicalSmall exhaustively checks Theorem 6 on every trivalent
// string of length ≤ 9: the fork built by A* attains ρ(F) = ρ(w) and
// µ_x(F) = µ_x(y) for every decomposition w = xy.
func TestAStarCanonicalSmall(t *testing.T) {
	syms := []charstring.Symbol{charstring.UniqueHonest, charstring.MultiHonest, charstring.Adversarial}
	var rec func(w charstring.String)
	count := 0
	rec = func(w charstring.String) {
		if len(w) > 0 {
			assertCanonical(t, w)
			count++
		}
		if len(w) == 9 || t.Failed() {
			return
		}
		for _, s := range syms {
			rec(append(w, s))
		}
	}
	rec(make(charstring.String, 0, 9))
	if count == 0 {
		t.Fatal("no strings checked")
	}
}

// TestAStarCanonicalRandom checks Theorem 6 on longer random strings drawn
// from a spread of Bernoulli laws, including the ph < pA regime and the
// bivalent ph = 0 regime.
func TestAStarCanonicalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	laws := []charstring.Params{
		charstring.MustParams(0.2, 0.4),
		charstring.MustParams(0.1, 0.05), // ph < pA
		charstring.MustParams(0.3, 0),    // bivalent
		charstring.MustParams(0.02, 0.49),
	}
	for _, law := range laws {
		for trial := 0; trial < 30; trial++ {
			w := law.Sample(rng, 60)
			assertCanonical(t, w)
			if t.Failed() {
				t.Fatalf("failing string (ǫ=%v ph=%v): %v", law.Epsilon, law.Ph, w)
			}
		}
	}
}

func assertCanonical(t *testing.T, w charstring.String) {
	t.Helper()
	f, err := Build(w)
	if err != nil {
		t.Fatalf("Build(%v): %v", w, err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Build(%v) produced invalid fork: %v", w, err)
	}
	if !f.IsClosed() {
		t.Fatalf("Build(%v) produced non-closed fork", w)
	}
	gotRho, err := f.MaxReach()
	if err != nil {
		t.Fatal(err)
	}
	if wantRho := margin.Rho(w); gotRho != wantRho {
		t.Errorf("ρ(F) = %d, want ρ(%v) = %d", gotRho, w, wantRho)
	}
	all, err := f.RelativeMarginsAllPrefixes()
	if err != nil {
		t.Fatal(err)
	}
	for xlen := 0; xlen <= len(w); xlen++ {
		want := margin.RelativeMargin(w, xlen)
		if all[xlen] != want {
			t.Errorf("µ_x(F) mismatch at |x|=%d for %v: fork %d, recurrence %d", xlen, w, all[xlen], want)
		}
	}
}

// TestProposition1UpperBound checks that no fork built by any strategy can
// exceed the recurrence values: for the A*-built fork of every string of
// length ≤ 7 with extra adversarial padding applied, the measured relative
// margins never exceed µ_x(y). (Proposition 1 is an upper bound over all
// closed forks; A*'s forks with arbitrary valid mutations stay below it.)
func TestProposition1UpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	law := charstring.MustParams(0.15, 0.3)
	for trial := 0; trial < 40; trial++ {
		w := law.Sample(rng, 24)
		f, err := Build(w)
		if err != nil {
			t.Fatal(err)
		}
		mutateWithAdversarialVertices(rng, f)
		if !f.IsClosed() {
			continue // mutation may open the fork; reach undefined then
		}
		all, err := f.RelativeMarginsAllPrefixes()
		if err != nil {
			t.Fatal(err)
		}
		for xlen := 0; xlen <= len(w); xlen++ {
			if want := margin.RelativeMargin(w, xlen); all[xlen] > want {
				t.Fatalf("margin exceeded recurrence at |x|=%d for %v: %d > %d", xlen, w, all[xlen], want)
			}
		}
	}
}

// mutateWithAdversarialVertices grafts a few extra adversarial vertices
// below honest vertices, keeping the fork valid and closed where possible.
func mutateWithAdversarialVertices(rng *rand.Rand, f *fork.Fork) {
	w := f.String()
	vs := f.Vertices()
	for i := 0; i < 4; i++ {
		v := vs[rng.Intn(len(vs))]
		// Find an adversarial label after v and an honest label after that
		// so the graft can be closed with an honest leaf.
		for l := v.Label() + 1; l+1 <= len(w); l++ {
			if w[l-1] != charstring.Adversarial {
				continue
			}
			a, err := f.AddVertex(v, l)
			if err != nil {
				break
			}
			for h := l + 1; h <= len(w); h++ {
				if w[h-1] == charstring.MultiHonest {
					// Only multiply honest slots tolerate extra vertices
					// without breaking (F3)/(F4); check depth constraint.
					if a.Depth()+1 > f.MaxHonestDepthUpTo(h-1) && depthOK(f, a.Depth()+1, h) {
						f.MustAddVertex(a, h)
					}
					break
				}
			}
			break
		}
	}
}

// depthOK reports whether adding an honest vertex at the given depth and
// slot keeps (F4): strictly deeper than earlier honest vertices and
// strictly shallower than later ones.
func depthOK(f *fork.Fork, depth, slot int) bool {
	for s := 1; s <= len(f.String()); s++ {
		for _, v := range f.VerticesAt(s) {
			if !f.Honest(v) {
				continue
			}
			if s < slot && v.Depth() >= depth {
				return false
			}
			if s > slot && v.Depth() <= depth {
				return false
			}
		}
	}
	return true
}

// TestBuildXBalanced verifies Fact 6 in both directions on random strings:
// an x-balanced fork is constructible exactly when µ_x(y) ≥ 0, and the
// constructed fork validates and is x-balanced.
func TestBuildXBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	law := charstring.MustParams(0.1, 0.2)
	built, refused := 0, 0
	for trial := 0; trial < 60; trial++ {
		w := law.Sample(rng, 30)
		for xlen := 0; xlen < len(w); xlen += 5 {
			f, err := BuildXBalanced(w, xlen)
			if margin.RelativeMargin(w, xlen) >= 0 {
				if err != nil {
					t.Fatalf("µ ≥ 0 but construction failed for %v at xlen=%d: %v", w, xlen, err)
				}
				if vErr := f.Validate(); vErr != nil {
					t.Fatalf("constructed fork invalid: %v", vErr)
				}
				if !f.IsXBalanced(xlen) {
					t.Fatalf("constructed fork not x-balanced for %v at xlen=%d", w, xlen)
				}
				built++
			} else {
				if err != ErrNoViolation {
					t.Fatalf("µ < 0 but got err=%v for %v at xlen=%d", err, w, xlen)
				}
				refused++
			}
		}
	}
	if built == 0 || refused == 0 {
		t.Fatalf("degenerate coverage: built=%d refused=%d", built, refused)
	}
}

func BenchmarkAStar(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	law := charstring.MustParams(0.1, 0.3)
	w := law.Sample(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(w); err != nil {
			b.Fatal(err)
		}
	}
}
