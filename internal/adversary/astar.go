// Package adversary implements fork-building adversaries for the abstract
// settlement game of Section 2.2 of the paper, chief among them the optimal
// online adversary A* of Figure 4, which produces canonical forks
// (Theorem 6): closed forks F ⊢ w with ρ(F) = ρ(w) and µ_x(F) = µ_x(y) for
// every decomposition w = xy simultaneously.
//
// The package also constructs explicit x-balanced forks — concrete
// settlement-violation witnesses — whenever the relative margin is
// non-negative (Fact 6), and exposes a simple private-chain adversary as a
// baseline.
package adversary

import (
	"errors"
	"fmt"
	"math"

	"multihonest/internal/charstring"
	"multihonest/internal/fork"
)

// AStar incrementally builds a canonical fork, consuming one characteristic
// symbol per Step call. The zero value is not usable; construct with
// NewAStar.
type AStar struct {
	f *fork.Fork
}

// NewAStar returns an A* builder holding the trivial fork for ε.
func NewAStar() *AStar {
	return &AStar{f: fork.New(nil)}
}

// Fork returns the fork built so far. The fork is owned by the builder;
// callers must Clone before mutating.
func (a *AStar) Fork() *fork.Fork { return a.f }

// Build runs A* over an entire characteristic string and returns the
// resulting canonical fork.
func Build(w charstring.String) (*fork.Fork, error) {
	a := NewAStar()
	for _, s := range w {
		if err := a.Step(s); err != nil {
			return nil, err
		}
	}
	return a.f, nil
}

// Extension describes one planned conservative extension: grow Target's
// tine by the adversarial PadLabels and finish with an honest vertex in the
// upcoming slot. Gap = len(PadLabels).
type Extension struct {
	Target    *fork.Vertex
	PadLabels []int
}

// Plan computes the extensions A* would perform for the next symbol
// without mutating the fork. The returned slice is empty for A symbols and
// holds one or two extensions for honest symbols (two extensions may share
// the same target: a single zero-reach tine labeled within x witnesses
// µ_x(y) = 0 against itself, and two sibling honest vertices realize the
// recurrence case µ_x(yH) = 0 at ρ(xy) = µ_x(y) = 0).
//
// Plan lets protocol-level adversaries (package chainsim) materialize the
// plan as concrete signed blocks before honest leaders act; Step applies
// the same plan to the abstract fork.
func (a *AStar) Plan(sym charstring.Symbol) ([]Extension, error) {
	if sym == charstring.Adversarial {
		return nil, nil
	}
	if !sym.Honest() {
		return nil, fmt.Errorf("adversary: symbol %v not in {h,H,A}", sym)
	}
	reaches, err := a.f.Reaches()
	if err != nil {
		return nil, err
	}
	rho := math.MinInt
	for _, r := range reaches {
		rho = max(rho, r.Reach)
	}
	var zero, maxR []*fork.Vertex
	for _, v := range a.f.Vertices() {
		if reaches[v.ID()].Reach == 0 {
			zero = append(zero, v)
		}
		if reaches[v.ID()].Reach == rho {
			maxR = append(maxR, v)
		}
	}
	targets := a.chooseTargets(sym, rho, zero, maxR)
	exts := make([]Extension, 0, len(targets))
	for _, t := range targets {
		labels, err := padLabels(a.f.String(), t.Label(), reaches[t.ID()].Gap)
		if err != nil {
			return nil, err
		}
		exts = append(exts, Extension{Target: t, PadLabels: labels})
	}
	return exts, nil
}

// padLabels returns the earliest `gap` adversarial slot labels after
// `after` in w, erroring when the reserve is insufficient.
func padLabels(w charstring.String, after, gap int) ([]int, error) {
	labels := make([]int, 0, gap)
	for l := after + 1; l <= len(w) && len(labels) < gap; l++ {
		if w[l-1] == charstring.Adversarial {
			labels = append(labels, l)
		}
	}
	if len(labels) < gap {
		return nil, fmt.Errorf("adversary: tine at label %d lacks reserve for gap %d (reach < 0)", after, gap)
	}
	return labels, nil
}

// Step feeds the next characteristic symbol to A*.
//
// On A the fork is unchanged (the adversary banks the slot as reserve). On
// an honest symbol, A* conservatively extends the zero-reach tine that
// diverges earliest from a maximum-reach tine; when the symbol is H and
// ρ(F) = 0 it performs two such extensions.
func (a *AStar) Step(sym charstring.Symbol) error {
	plan, err := a.Plan(sym)
	if err != nil {
		return err
	}
	slot := a.f.AppendSymbol(sym)
	for _, ext := range plan {
		cur := ext.Target
		for _, l := range ext.PadLabels {
			v, err := a.f.AddVertex(cur, l)
			if err != nil {
				return err
			}
			cur = v
		}
		if _, err := a.f.AddVertex(cur, slot); err != nil {
			return err
		}
	}
	return nil
}

// chooseTargets implements the selection rule of Figure 4.
func (a *AStar) chooseTargets(sym charstring.Symbol, rho int, zero, maxR []*fork.Vertex) []*fork.Vertex {
	if len(zero) == 0 {
		// No zero-reach tine exists (every relative margin is nonzero, so
		// any conservative extension preserves canonicity); extend a
		// maximum-reach tine as the prefix-aware adversary of footnote 4
		// does. This can only arise with ρ(F) ≥ 1.
		return maxR[:1]
	}
	z1, r1 := earliestDivergingPair(zero, maxR)
	if sym == charstring.UniqueHonest || rho >= 1 {
		return []*fork.Vertex{z1}
	}
	// sym == H and ρ(F) = 0: two conservative extensions, possibly of the
	// same tine (z1 == r1 when the earliest "divergence" is a self-pair).
	return []*fork.Vertex{z1, r1}
}

// earliestDivergingPair returns (z, r) ∈ zero × maxR minimizing the label
// of the pair's last common vertex, with equal pairs permitted and valued
// at the tine's own label (a tine trivially "diverges" from itself at its
// tip: extending it twice yields vertices whose last common ancestor is
// that tip).
func earliestDivergingPair(zero, maxR []*fork.Vertex) (z, r *fork.Vertex) {
	best := math.MaxInt
	for _, zc := range zero {
		for _, rc := range maxR {
			var div int
			if zc == rc {
				div = zc.Label()
			} else {
				div = fork.LCA(zc, rc).Label()
			}
			if div < best {
				best, z, r = div, zc, rc
			}
		}
	}
	return z, r
}

// ErrNoViolation is returned by BuildXBalanced when the margin is negative
// and no x-balanced fork exists (Fact 6).
var ErrNoViolation = errors.New("adversary: relative margin negative; no x-balanced fork exists")

// BuildXBalanced constructs an x-balanced fork for w = xy with |x| = xlen
// (|y| ≥ 1): a fork with two maximum-length tines that are edge-disjoint
// over y. Such a fork witnesses that slot |x|+1 is not settled at horizon
// |y| (Observation 2). It returns ErrNoViolation when µ_x(y) < 0.
//
// The construction follows Fact 6: run A* to a canonical fork, take a
// witness pair for µ_x(y) ≥ 0, and pad each tine with its remaining
// adversarial reserve to maximum length.
func BuildXBalanced(w charstring.String, xlen int) (*fork.Fork, error) {
	if xlen < 0 || xlen >= len(w) {
		return nil, fmt.Errorf("adversary: xlen %d outside [0, %d)", xlen, len(w))
	}
	f, err := Build(w)
	if err != nil {
		return nil, err
	}
	mu, err := f.RelativeMargin(xlen)
	if err != nil {
		return nil, err
	}
	if mu < 0 {
		return nil, ErrNoViolation
	}
	t1, t2, err := witnessNonNegative(f, xlen)
	if err != nil {
		return nil, err
	}
	// Capture reach bookkeeping before padding: pads add adversarial
	// leaves, after which the closed-fork reach quantities are undefined.
	rs, err := f.Reaches()
	if err != nil {
		return nil, err
	}
	height := f.Height()
	if t1 != t2 {
		if err := padTine(f, t1, height-t1.Depth(), rs[t1.ID()].Reserve, 1); err != nil {
			return nil, err
		}
		if err := padTine(f, t2, height-t2.Depth(), rs[t2.ID()].Reserve, 1); err != nil {
			return nil, err
		}
	} else {
		// Self-witness: fork two adversarial pads off the same tine. Each
		// pad reuses the same adversarial slots (permitted across distinct
		// tines); with gap 0 the pads go one past the current height so
		// that the two new tines are the unique maximal ones.
		need := max(height-t1.Depth(), 1)
		if err := padTine(f, t1, need, rs[t1.ID()].Reserve, 2); err != nil {
			return nil, err
		}
	}
	if !f.IsXBalanced(xlen) {
		return nil, fmt.Errorf("adversary: internal error: constructed fork not x-balanced for xlen=%d", xlen)
	}
	return f, nil
}

// witnessNonNegative finds a tine pair, disjoint over y, with both reaches
// ≥ 0, preferring distinct pairs.
func witnessNonNegative(f *fork.Fork, xlen int) (t1, t2 *fork.Vertex, err error) {
	rs, err := f.Reaches()
	if err != nil {
		return nil, nil, err
	}
	vs := f.Vertices()
	for i, u := range vs {
		if rs[u.ID()].Reach < 0 {
			continue
		}
		for _, v := range vs[i+1:] {
			if rs[v.ID()].Reach < 0 {
				continue
			}
			if fork.LCA(u, v).Label() <= xlen {
				return u, v, nil
			}
		}
	}
	for _, u := range vs {
		if rs[u.ID()].Reach >= 0 && u.Label() <= xlen {
			return u, u, nil
		}
	}
	return nil, nil, errors.New("adversary: no non-negative witness pair despite µ ≥ 0")
}

// padTine grows `copies` adversarial pads of length `need` from u, each
// using the earliest adversarial slots after ℓ(u); distinct pads reuse the
// same slots (permitted across distinct tines). Requires reserve ≥ need,
// which reach(u) ≥ 0 guarantees for need ≤ gap(u).
func padTine(f *fork.Fork, u *fork.Vertex, need, reserve, copies int) error {
	if need <= 0 {
		return nil
	}
	if reserve < need {
		return fmt.Errorf("adversary: reserve %d < pad %d at label %d", reserve, need, u.Label())
	}
	w := f.String()
	for i := 0; i < copies; i++ {
		cur := u
		rem := need
		for l := u.Label() + 1; l <= len(w) && rem > 0; l++ {
			if w[l-1] == charstring.Adversarial {
				v, err := f.AddVertex(cur, l)
				if err != nil {
					return err
				}
				cur = v
				rem--
			}
		}
		if rem > 0 {
			return errors.New("adversary: ran out of adversarial slots while padding")
		}
	}
	return nil
}
