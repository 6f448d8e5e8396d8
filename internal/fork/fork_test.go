package fork

import (
	"math/rand"
	"strings"
	"testing"

	"multihonest/internal/charstring"
)

// buildFigure1 constructs a fork with the structure of the paper's
// Figure 1 for w = hAhAhHAAH: three maximal tines, concurrent honest
// leaders at slots 6 and 9 (two vertices each, extending different
// vertices of equal depth), and multiple adversarial vertices at slots 2
// and 4. Honest depths are d(1)=1 < d(3)=2 < d(5)=3 < d(6)=4 < d(9)=5 as
// (F4) requires.
func buildFigure1(t testing.TB) *Fork {
	w := charstring.MustParse("hAhAhHAAH")
	f := New(w)
	r := f.Root()
	v1 := f.MustAddVertex(r, 1)   // h, depth 1
	a2 := f.MustAddVertex(r, 2)   // A
	v3 := f.MustAddVertex(a2, 3)  // h, depth 2
	b2 := f.MustAddVertex(v1, 2)  // second slot-2 vertex
	f.MustAddVertex(a2, 4)        // extra slot-4 vertex (figure shows three)
	v5 := f.MustAddVertex(b2, 5)  // h, depth 3
	c4 := f.MustAddVertex(v3, 4)  // A, depth 3
	b4 := f.MustAddVertex(b2, 4)  // A, depth 3
	v6a := f.MustAddVertex(c4, 6) // H, depth 4
	v6b := f.MustAddVertex(b4, 6) // H, depth 4: extends a different depth-3 vertex
	a7 := f.MustAddVertex(v5, 7)  // A
	a8 := f.MustAddVertex(a7, 8)  // A, depth 5 — third maximal tine
	f.MustAddVertex(v6a, 9)       // H, depth 5
	f.MustAddVertex(v6b, 9)       // H, depth 5
	_ = a8
	return f
}

func TestFigure1Fork(t *testing.T) {
	f := buildFigure1(t)
	if err := f.Validate(); err != nil {
		t.Fatalf("Figure 1 fork invalid: %v", err)
	}
	if f.Height() != 5 {
		t.Errorf("height = %d, want 5", f.Height())
	}
	if got := len(f.DeepestVertices()); got != 3 {
		t.Errorf("maximal tines = %d, want 3", got)
	}
	if got := len(f.VerticesAt(6)); got != 2 {
		t.Errorf("slot 6 has %d vertices, want 2", got)
	}
	if got := len(f.VerticesAt(9)); got != 2 {
		t.Errorf("slot 9 has %d vertices, want 2", got)
	}
	if f.IsClosed() {
		t.Error("Figure 1 fork has adversarial leaf (slot 4 branch); not closed")
	}
	if !strings.Contains(f.DOT(), "doublecircle") {
		t.Error("DOT rendering must mark honest vertices")
	}
}

func TestAxiomRejection(t *testing.T) {
	w := charstring.MustParse("hhH")
	t.Run("F2-label-order", func(t *testing.T) {
		f := New(w)
		v1 := f.MustAddVertex(f.Root(), 2)
		if _, err := f.AddVertex(v1, 2); err == nil {
			t.Error("equal labels along a path accepted")
		}
		if _, err := f.AddVertex(v1, 1); err == nil {
			t.Error("decreasing labels accepted")
		}
	})
	t.Run("F3-unique-honest", func(t *testing.T) {
		f := New(w)
		f.MustAddVertex(f.Root(), 1)
		f.MustAddVertex(f.Root(), 1) // duplicate vertex for uniquely honest slot
		f.MustAddVertex(f.Root(), 2)
		f.MustAddVertex(f.Root(), 3)
		if err := f.Validate(); err == nil {
			t.Error("duplicate h-slot vertex accepted")
		}
	})
	t.Run("F3-missing-honest", func(t *testing.T) {
		f := New(w)
		f.MustAddVertex(f.Root(), 1)
		if err := f.Validate(); err == nil {
			t.Error("missing honest vertices accepted")
		}
	})
	t.Run("F4-depth-order", func(t *testing.T) {
		f := New(w)
		f.MustAddVertex(f.Root(), 1)
		f.MustAddVertex(f.Root(), 2) // same depth as slot 1's vertex: violates F4
		f.MustAddVertex(f.Root(), 3)
		if err := f.Validate(); err == nil {
			t.Error("non-increasing honest depths accepted")
		}
	})
	t.Run("F4-delta-relaxation", func(t *testing.T) {
		f := New(w)
		f.MustAddVertex(f.Root(), 1)
		f.MustAddVertex(f.Root(), 2)
		v3 := f.MustAddVertex(f.VerticesAt(1)[0], 3)
		_ = v3
		if err := f.validate(1); err != nil {
			t.Errorf("Δ=1 fork should accept adjacent equal depths: %v", err)
		}
	})
}

func TestReachQuantities(t *testing.T) {
	// w = hA: root (gap 1, reserve 1, reach 0), v1 (gap 0, reserve 1, reach 1).
	w := charstring.MustParse("hA")
	f := New(w)
	v1 := f.MustAddVertex(f.Root(), 1)
	rs, err := f.Reaches()
	if err != nil {
		t.Fatal(err)
	}
	if rs[f.Root().ID()] != (Reach{Gap: 1, Reserve: 1, Reach: 0}) {
		t.Errorf("root reach = %+v", rs[f.Root().ID()])
	}
	if rs[v1.ID()] != (Reach{Gap: 0, Reserve: 1, Reach: 1}) {
		t.Errorf("v1 reach = %+v", rs[v1.ID()])
	}
	rho, err := f.MaxReach()
	if err != nil || rho != 1 {
		t.Errorf("ρ(F) = %d err %v, want 1", rho, err)
	}
}

func TestReachRequiresClosed(t *testing.T) {
	w := charstring.MustParse("hA")
	f := New(w)
	v1 := f.MustAddVertex(f.Root(), 1)
	f.MustAddVertex(v1, 2) // adversarial leaf
	if _, err := f.Reaches(); err != ErrNotClosed {
		t.Fatalf("got %v, want ErrNotClosed", err)
	}
}

func TestBalancedForkExamples(t *testing.T) {
	// Figure 2: w = hAhAhA with two disjoint length-3 tines.
	w := charstring.MustParse("hAhAhA")
	f := New(w)
	r := f.Root()
	a1 := f.MustAddVertex(r, 1) // honest
	a2 := f.MustAddVertex(a1, 3)
	a3 := f.MustAddVertex(a2, 5)
	b1 := f.MustAddVertex(r, 2) // adversarial branch
	b2 := f.MustAddVertex(b1, 4)
	b3 := f.MustAddVertex(b2, 6)
	_, _ = a3, b3
	if err := f.Validate(); err != nil {
		t.Fatalf("Figure 2 fork invalid: %v", err)
	}
	if !f.IsBalanced() {
		t.Error("Figure 2 fork should be balanced")
	}

	// Figure 3: w = hhhAhA, x = hh: tines may share x-edges.
	w3 := charstring.MustParse("hhhAhA")
	g := New(w3)
	c1 := g.MustAddVertex(g.Root(), 1)
	c2 := g.MustAddVertex(c1, 2)
	c3 := g.MustAddVertex(c2, 3)
	c5 := g.MustAddVertex(c3, 5)
	d4 := g.MustAddVertex(c2, 4)
	d6 := g.MustAddVertex(d4, 6)
	_, _ = c5, d6
	if err := g.Validate(); err != nil {
		t.Fatalf("Figure 3 fork invalid: %v", err)
	}
	if g.IsBalanced() {
		t.Error("Figure 3 fork is not balanced over the full string (tines share slot-1..2 edges)")
	}
	if !g.IsXBalanced(2) {
		t.Error("Figure 3 fork should be x-balanced for x = hh")
	}
}

// isPrefixOf reports whether v's tine is a (non-strict) prefix of u's tine.
func isPrefixOf(v, u *Vertex) bool {
	for u.depth > v.depth {
		u = u.parent
	}
	return u == v
}

func TestLCAAndDisjointness(t *testing.T) {
	f := buildFigure1(t)
	vs := f.Vertices()
	for i, u := range vs {
		for _, v := range vs[i:] {
			l := LCA(u, v)
			if !isPrefixOf(l, u) || !isPrefixOf(l, v) {
				t.Fatalf("LCA(%d,%d) not a common prefix", u.ID(), v.ID())
			}
		}
	}
	if !EdgeDisjointOver(f.Root(), f.Root(), 0) {
		t.Error("root tine is disjoint with itself over everything")
	}
}

func TestViability(t *testing.T) {
	w := charstring.MustParse("hAh")
	f := New(w)
	v1 := f.MustAddVertex(f.Root(), 1)
	a2 := f.MustAddVertex(f.Root(), 2)
	v3 := f.MustAddVertex(v1, 3)
	_ = v3
	// A tine is viable at the onset of slot 3 when it is no shorter than
	// every honest vertex labeled before slot 3: the honest depth max from
	// slots ≤ 2 is depth(v1) = 1, so a2 (depth 1) is viable and the root
	// (depth 0) is not.
	if a2.Depth() < f.MaxHonestDepthUpTo(2) {
		t.Error("a2 should be viable at onset of slot 3")
	}
	if f.Root().Depth() >= f.MaxHonestDepthUpTo(2) {
		t.Error("root should not be viable at onset of slot 3")
	}
}

func TestRelativeMarginsRandomAgainstDefinition(t *testing.T) {
	// Cross-check RelativeMarginsAllPrefixes against a direct per-xlen
	// pairwise computation on random valid forks built by adding honest
	// chains plus adversarial decorations.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		w := charstring.MustParams(0.2, 0.5).Sample(rng, 14)
		f := New(w)
		tips := []*Vertex{f.Root()}
		for s := 1; s <= len(w); s++ {
			switch w[s-1] {
			case charstring.UniqueHonest, charstring.MultiHonest:
				// extend the deepest tip to keep F4.
				deepest := tips[0]
				for _, v := range tips {
					if v.Depth() > deepest.Depth() {
						deepest = v
					}
				}
				tips = append(tips, f.MustAddVertex(deepest, s))
			case charstring.Adversarial:
				// occasionally decorate, keeping closedness out of scope.
			}
		}
		if !f.IsClosed() {
			continue
		}
		all, err := f.RelativeMarginsAllPrefixes()
		if err != nil {
			t.Fatal(err)
		}
		rs, _ := f.Reaches()
		for xlen := 0; xlen <= len(w); xlen++ {
			want := -1 << 40
			vs := f.Vertices()
			for i, u := range vs {
				if u.Label() <= xlen && rs[u.ID()].Reach > want {
					want = rs[u.ID()].Reach
				}
				for _, v := range vs[i+1:] {
					if LCA(u, v).Label() <= xlen {
						if m := min(rs[u.ID()].Reach, rs[v.ID()].Reach); m > want {
							want = m
						}
					}
				}
			}
			if all[xlen] != want {
				t.Fatalf("µ mismatch at xlen=%d: %d vs %d", xlen, all[xlen], want)
			}
		}
	}
}
