// Package fork implements the fork framework of Blum et al. as generalized
// by Kiayias–Quader–Russell to multiply honest slots (Definition 2 and
// Sections 3 and 6 of the paper).
//
// A fork F ⊢ w for a characteristic string w is a rooted tree whose
// vertices are labeled with slot indices. A tine is a root-to-vertex path
// and abstracts a blockchain; the fork axioms (F1)–(F4) mirror the
// blockchain axioms A1–A4 of the protocol. The package provides
// construction, axiom validation, the reach/margin quantities of
// Definitions 13–17, balanced-fork predicates (Definition 18), slot
// divergence (Definition 25), viability, and rendering.
package fork

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"multihonest/internal/charstring"
)

// Vertex is a node of a fork. The tine of a vertex is the unique
// root-to-vertex path, so vertices and tines are in bijection; the length
// of the tine is the vertex's depth.
type Vertex struct {
	id       int
	label    int // slot index; 0 for the genesis root
	depth    int
	parent   *Vertex
	children []*Vertex
}

// ID returns the vertex's creation-order identifier, unique within a fork.
func (v *Vertex) ID() int { return v.id }

// Label returns ℓ(v), the slot index of the vertex (0 for the root).
func (v *Vertex) Label() int { return v.label }

// Depth returns the length of the tine terminating at v.
func (v *Vertex) Depth() int { return v.depth }

// Parent returns the vertex's parent, or nil for the root.
func (v *Vertex) Parent() *Vertex { return v.parent }

// IsRoot reports whether v is the genesis root.
func (v *Vertex) IsRoot() bool { return v.parent == nil }

// Fork is a rooted labeled tree built over a characteristic string.
//
// The string may be extended while the fork is under construction
// (AppendSymbol), which is how online adversaries such as A* operate.
// Validate checks the fork axioms against the current string.
type Fork struct {
	w        charstring.String
	root     *Vertex
	vertices []*Vertex // all vertices in creation order; vertices[0] is root
	byLabel  [][]*Vertex
}

// New returns the trivial fork (a lone genesis root) for the string w.
// The string is cloned; the fork owns its copy.
func New(w charstring.String) *Fork {
	f := &Fork{w: w.Clone()}
	f.root = &Vertex{id: 0, label: 0, depth: 0}
	f.vertices = []*Vertex{f.root}
	f.byLabel = make([][]*Vertex, len(w)+1)
	f.byLabel[0] = []*Vertex{f.root}
	return f
}

// String returns the characteristic string the fork is built over.
// The returned slice is shared; callers must not modify it.
func (f *Fork) String() charstring.String { return f.w }

// Root returns the genesis root.
func (f *Fork) Root() *Vertex { return f.root }

// Vertices returns all vertices in creation order, starting with the root.
// The returned slice is shared; callers must not modify it.
func (f *Fork) Vertices() []*Vertex { return f.vertices }

// Len returns the number of vertices including the root.
func (f *Fork) Len() int { return len(f.vertices) }

// AppendSymbol extends the fork's characteristic string by one symbol and
// returns the new string length. Extending the string never invalidates an
// existing fork prefix (F ⊢ x and x ⪯ w allow F's paths inside forks for w).
func (f *Fork) AppendSymbol(s charstring.Symbol) int {
	f.w = append(f.w, s)
	f.byLabel = append(f.byLabel, nil)
	return len(f.w)
}

// VerticesAt returns the vertices labeled with the given slot.
// The returned slice is shared; callers must not modify it.
func (f *Fork) VerticesAt(slot int) []*Vertex {
	if slot < 0 || slot >= len(f.byLabel) {
		return nil
	}
	return f.byLabel[slot]
}

// AddVertex adds a vertex labeled slot as a child of parent and returns it.
// It enforces the local well-formedness conditions: the parent must belong
// to this fork, the slot must be within the current string, and labels must
// strictly increase along the path (F2). Global axioms are checked by
// Validate.
func (f *Fork) AddVertex(parent *Vertex, slot int) (*Vertex, error) {
	if parent == nil {
		return nil, errors.New("fork: nil parent")
	}
	if parent.id >= len(f.vertices) || f.vertices[parent.id] != parent {
		return nil, errors.New("fork: parent does not belong to this fork")
	}
	if slot < 1 || slot > len(f.w) {
		return nil, fmt.Errorf("fork: slot %d outside string of length %d", slot, len(f.w))
	}
	if slot <= parent.label {
		return nil, fmt.Errorf("fork: label %d does not exceed parent label %d (F2)", slot, parent.label)
	}
	v := &Vertex{id: len(f.vertices), label: slot, depth: parent.depth + 1, parent: parent}
	parent.children = append(parent.children, v)
	f.vertices = append(f.vertices, v)
	f.byLabel[slot] = append(f.byLabel[slot], v)
	return v, nil
}

// MustAddVertex is AddVertex that panics on error, for tests and fixtures.
func (f *Fork) MustAddVertex(parent *Vertex, slot int) *Vertex {
	v, err := f.AddVertex(parent, slot)
	if err != nil {
		panic(err)
	}
	return v
}

// Honest reports whether the vertex is honest, i.e. labeled with an honest
// slot of the fork's string. The root is honest by convention.
func (f *Fork) Honest(v *Vertex) bool {
	if v.label == 0 {
		return true
	}
	return f.w[v.label-1].Honest()
}

// Height returns the length of the longest tine.
func (f *Fork) Height() int {
	h := 0
	for _, v := range f.vertices {
		h = max(h, v.depth)
	}
	return h
}

// HonestDepth returns d(i): the largest depth of any vertex labeled with the
// honest slot i, or -1 if the slot has no vertex (an invalid fork) or is not
// honest.
func (f *Fork) HonestDepth(slot int) int {
	if slot < 1 || slot > len(f.w) || !f.w[slot-1].Honest() {
		return -1
	}
	d := -1
	for _, v := range f.byLabel[slot] {
		d = max(d, v.depth)
	}
	return d
}

// MaxHonestDepthUpTo returns max{d(i) : i honest, i ≤ slot}, or 0 when no
// honest slot ≤ slot has a vertex (the root's depth).
func (f *Fork) MaxHonestDepthUpTo(slot int) int {
	d := 0
	for i := 1; i <= slot && i <= len(f.w); i++ {
		if f.w[i-1].Honest() {
			d = max(d, f.HonestDepth(i))
		}
	}
	return d
}

// Validate checks the fork axioms (F1)–(F4) of Definition 2 against the
// fork's current characteristic string. It returns nil when the fork is
// valid. The synchronous axioms are checked; for Δ-forks see package
// deltasync.
func (f *Fork) Validate() error {
	return f.validate(0)
}

func (f *Fork) validate(delta int) error {
	// (F1): unique root labeled 0.
	if f.root.label != 0 {
		return errors.New("fork: root label nonzero (F1)")
	}
	// (F2): labels strictly increase along edges (enforced at insertion,
	// re-checked here for safety).
	for _, v := range f.vertices[1:] {
		if v.label <= v.parent.label {
			return fmt.Errorf("fork: vertex %d label %d ≤ parent label %d (F2)", v.id, v.label, v.parent.label)
		}
		if !f.w[v.label-1].ValidSemiSync() || f.w[v.label-1] == charstring.Empty {
			return fmt.Errorf("fork: vertex %d labeled empty slot %d", v.id, v.label)
		}
	}
	// (F3): uniquely honest slots have exactly one vertex; multiply honest
	// slots at least one.
	for slot := 1; slot <= len(f.w); slot++ {
		n := len(f.byLabel[slot])
		switch f.w[slot-1] {
		case charstring.UniqueHonest:
			if n != 1 {
				return fmt.Errorf("fork: uniquely honest slot %d has %d vertices, want 1 (F3)", slot, n)
			}
		case charstring.MultiHonest:
			if n < 1 {
				return fmt.Errorf("fork: multiply honest slot %d has no vertex (F3)", slot)
			}
		}
	}
	// (F4)/(F4Δ): depths of honest vertices respect slot order.
	type hv struct{ slot, depth int }
	var honest []hv
	for slot := 1; slot <= len(f.w); slot++ {
		if !f.w[slot-1].Honest() {
			continue
		}
		for _, v := range f.byLabel[slot] {
			honest = append(honest, hv{slot, v.depth})
		}
	}
	sort.Slice(honest, func(i, j int) bool { return honest[i].slot < honest[j].slot })
	for i := range honest {
		for j := i + 1; j < len(honest); j++ {
			if honest[i].slot+delta < honest[j].slot && honest[i].depth >= honest[j].depth {
				return fmt.Errorf("fork: honest depths not increasing: slot %d depth %d vs slot %d depth %d (F4, Δ=%d)",
					honest[i].slot, honest[i].depth, honest[j].slot, honest[j].depth, delta)
			}
		}
	}
	return nil
}

// IsClosed reports whether every leaf of the fork is honest (Definition 12).
// The trivial fork is closed.
func (f *Fork) IsClosed() bool {
	for _, v := range f.vertices {
		if len(v.children) == 0 && !v.IsRoot() && !f.Honest(v) {
			return false
		}
	}
	return true
}

// LCA returns the deepest common ancestor of u and v (their longest common
// tine prefix, t_u ∩ t_v).
func LCA(u, v *Vertex) *Vertex {
	for u.depth > v.depth {
		u = u.parent
	}
	for v.depth > u.depth {
		v = v.parent
	}
	for u != v {
		u = u.parent
		v = v.parent
	}
	return u
}

// EdgeDisjointOver reports whether the tines of u and v share no edge
// terminating at a label > xlen (the relation t_u ≁_x t_v of Definition 16
// for |x| = xlen). A tine is disjoint with itself over y exactly when its
// label is ≤ xlen.
func EdgeDisjointOver(u, v *Vertex, xlen int) bool {
	if u == v {
		return u.label <= xlen
	}
	return LCA(u, v).label <= xlen
}

// DeepestVertices returns all vertices of maximum depth.
func (f *Fork) DeepestVertices() []*Vertex {
	h := f.Height()
	var out []*Vertex
	for _, v := range f.vertices {
		if v.depth == h {
			out = append(out, v)
		}
	}
	return out
}

// IsBalanced reports whether the fork contains two edge-disjoint tines of
// maximum length (Definition 18 with x = ε).
func (f *Fork) IsBalanced() bool { return f.IsXBalanced(0) }

// IsXBalanced reports whether the fork contains two maximum-length tines
// that are edge-disjoint over the suffix after the first xlen slots
// (Definition 18).
func (f *Fork) IsXBalanced(xlen int) bool {
	deep := f.DeepestVertices()
	for i := 0; i < len(deep); i++ {
		for j := i + 1; j < len(deep); j++ {
			if EdgeDisjointOver(deep[i], deep[j], xlen) {
				return true
			}
		}
	}
	// A single maximum-length tine balanced against itself requires its
	// label within x and positive height; that degenerate case only arises
	// for height 0, which is not a balance witness.
	return false
}

// Tine returns the root-to-v path as a vertex slice (root first).
func Tine(v *Vertex) []*Vertex {
	path := make([]*Vertex, v.depth+1)
	for v != nil {
		path[v.depth] = v
		v = v.parent
	}
	return path
}

// Render returns a compact multi-line ASCII rendering of the fork: one line
// per root-to-leaf path with vertex labels, honest vertices marked with
// [n], adversarial with (n).
func (f *Fork) Render() string {
	var b strings.Builder
	var leaves []*Vertex
	for _, v := range f.vertices {
		if len(v.children) == 0 {
			leaves = append(leaves, v)
		}
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].id < leaves[j].id })
	for _, leaf := range leaves {
		path := Tine(leaf)
		parts := make([]string, len(path))
		for i, v := range path {
			if f.Honest(v) {
				parts[i] = fmt.Sprintf("[%d]", v.label)
			} else {
				parts[i] = fmt.Sprintf("(%d)", v.label)
			}
		}
		fmt.Fprintf(&b, "%s  len=%d\n", strings.Join(parts, "--"), leaf.depth)
	}
	return b.String()
}

// DOT returns a Graphviz rendering of the fork. Honest vertices are drawn
// with double borders, matching the paper's figures.
func (f *Fork) DOT() string {
	var b strings.Builder
	b.WriteString("digraph fork {\n  rankdir=LR;\n  node [shape=circle];\n")
	for _, v := range f.vertices {
		shape := "circle"
		if f.Honest(v) {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  v%d [label=\"%d\", shape=%s];\n", v.id, v.label, shape)
	}
	for _, v := range f.vertices[1:] {
		fmt.Fprintf(&b, "  v%d -> v%d;\n", v.parent.id, v.id)
	}
	b.WriteString("}\n")
	return b.String()
}
