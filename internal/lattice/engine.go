// Package lattice is the shared computational engine behind every settlement
// sweep of the reproduction: a capped two-dimensional lattice Markov chain
// over the joint (reach r, relative margin s) state of Theorem 5, advanced by
// the single transition stencil of Section 6.6.
//
// The four hand-rolled kernels that used to live in internal/settlement
// (exact capped, paper-sized naive, finite-prefix, saturating upper bound)
// are all instances of one chain family, differing only in geometry and in
// one boundary rule. The engine factors that family into three orthogonal
// pieces:
//
//   - Geometry: the saturating caps r ∈ [0, RMax], s ∈ [SMin, SMax]. Mass
//     pushed past a cap pools in the boundary cell.
//   - Stencil: the per-step law. An adversarial symbol (probability PA) maps
//     (r, s) → (r+1, s+1); an honest symbol (probability Ph + PH) maps
//     (r, s) → (max(r−1, 0), s−1) except at the s = 0 boundary, where a
//     uniquely honest symbol resets to s' = 0 only when r > 0 while a
//     multiply honest symbol always resets (the µ-recurrence of Theorem 5).
//     StickyReach selects the conservative upper-bound variant in which a
//     saturated reach stays saturated on honest steps.
//   - Options: the execution policy — active-window tracking versus
//     full-grid scans, and the pruning threshold τ.
//
// # Active-window tracking
//
// Both coordinates move by at most one per step, so the support of the mass
// distribution grows by at most one cell per step in each direction — and in
// float64 it also *contracts*: cells whose mass underflows to zero (or falls
// below τ) die, and the live region concentrates around the drift. The
// engine maintains a per-row live interval [lo(r), hi(r)] and a live row
// window [rLo, rHi], scanning only live cells each step. On the Table 1
// grids this touches well under a tenth of the cells the full scan visits.
//
// Every cell of either buffer outside that buffer's live region is zero.
// This rule is what lets a step write an interior destination row in one
// fused pass, reading whole source ranges instead of band-limited pieces,
// and what lets a freed engine hand its grids back for reuse after clearing
// only its live bands (Free).
//
// # Threshold pruning and the dropped-mass ledger
//
// With τ > 0 the engine retires band-edge cells whose mass is ≤ τ and adds
// the retired mass to a ledger. Because total mass is conserved by the
// transition, removing a packet of mass m at any step can lower any later
// event probability by at most m and can never raise it; the exact value of
// the unpruned chain therefore always lies in [TailMass, TailMass+Dropped].
// τ = 0 is the exact mode: only cells that are exactly zero are retired, the
// ledger stays identically zero, and the bracket collapses to the exact
// value. Interior cells are never pruned, only band edges, so the live
// region stays a contiguous band per row.
//
// # Floating point
//
// Every product is wrapped in an explicit float64 conversion, which the Go
// spec defines to round, so no architecture may fuse it with the following
// addition into an FMA: the readouts are the same bits on every GOARCH.
package lattice

import (
	"fmt"
	"sync"
)

// Geometry is the saturating state-space box: r ∈ [0, RMax], s ∈ [SMin, SMax].
type Geometry struct {
	RMax int // reach cap (mass at r > RMax pools at RMax)
	SMin int // lower margin cap, must be ≤ −1
	SMax int // upper margin cap, must be ≥ +1
}

// Stencil is the one-step transition law of the (reach, margin) chain family.
// PA + Ph + PH should sum to 1 for a probability chain; the engine conserves
// whatever total the stencil preserves.
type Stencil struct {
	PA float64 // adversarial symbol: (r, s) → (r+1, s+1)
	Ph float64 // uniquely honest: s' = 0 iff s == 0 and r > 0, else s−1
	PH float64 // multiply honest: s' = 0 iff s == 0, else s−1
	// StickyReach keeps a saturated reach saturated on honest steps
	// (r' = RMax instead of RMax−1): the conservative rule of the rigorous
	// upper-bound chain, whose saturation cells dominate the true chain.
	StickyReach bool
}

// Options selects the execution policy.
type Options struct {
	// Tau is the pruning threshold: band-edge cells with mass ≤ Tau are
	// retired into the dropped-mass ledger. Tau = 0 retires only exact
	// zeros and keeps the sweep exact.
	Tau float64
	// Full disables active-window tracking and pruning: every step scans
	// the whole grid. This is the ablation baseline (and the faithful
	// re-expression of the paper's naive full-size sweep).
	Full bool
}

// grid is the pair of mass buffers behind a banded engine. Every grid in
// gridPools is all zero.
type grid struct{ a, b []float64 }

// gridPools maps a buffer length in cells to the *sync.Pool of freed,
// zeroed grids of that length.
var gridPools sync.Map

// getGrid returns an all-zero grid of n cells per buffer, recycled when
// the pool has one, and whether it was.
func getGrid(n int) (*grid, bool) {
	if p, ok := gridPools.Load(n); ok {
		if g, _ := p.(*sync.Pool).Get().(*grid); g != nil {
			return g, true
		}
	}
	return &grid{a: make([]float64, n), b: make([]float64, n)}, false
}

// putGrid hands a zeroed grid to the pool of its length.
func putGrid(g *grid) {
	p, ok := gridPools.Load(len(g.a))
	if !ok {
		p, _ = gridPools.LoadOrStore(len(g.a), new(sync.Pool))
	}
	p.(*sync.Pool).Put(g)
}

// Engine advances mass over the capped lattice one step at a time.
// It is not safe for concurrent use; run independent chains on independent
// engines (that is how the Table 1 block sweep parallelizes).
type Engine struct {
	geo Geometry
	st  Stencil
	opt Options

	width int // SMax − SMin + 1
	off   int // −SMin: index of s = 0 within a row

	grid       *grid     // pooled backing of cur and next; nil in Full mode
	recycled   bool      // grid came from the pool
	cur, next  []float64 // flat [r*width + s+off] double buffer
	lo, hi     []int     // live interval per row of cur (s-coordinates)
	nLo, nHi   []int     // live interval per row of next
	rLo, rHi   int       // live row window of cur; rLo > rHi means empty
	nrLo, nrHi int       // live row window of next

	tail    float64 // TailMass of cur, summed by the last Step
	tailOK  bool    // tail is current (no Add since that Step)
	dropped float64
	steps   int
}

// NewEngine validates the configuration and returns an empty engine. A
// banded engine draws its grids from the pool that Free fills; a Full-mode
// engine allocates its own.
func NewEngine(g Geometry, st Stencil, opt Options) (*Engine, error) {
	if g.RMax < 1 || g.SMin > -1 || g.SMax < 1 {
		return nil, fmt.Errorf("lattice: invalid geometry %+v (need RMax ≥ 1, SMin ≤ −1, SMax ≥ 1)", g)
	}
	for _, p := range []float64{st.PA, st.Ph, st.PH} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("lattice: stencil probability %v outside [0,1]", p)
		}
	}
	if opt.Tau < 0 {
		return nil, fmt.Errorf("lattice: negative pruning threshold %v", opt.Tau)
	}
	if opt.Full && opt.Tau != 0 {
		return nil, fmt.Errorf("lattice: pruning (τ=%v) requires window tracking; Full mode is exact-only", opt.Tau)
	}
	e := &Engine{
		geo:   g,
		st:    st,
		opt:   opt,
		width: g.SMax - g.SMin + 1,
		off:   -g.SMin,
	}
	n := (g.RMax + 1) * e.width
	if opt.Full {
		e.cur = make([]float64, n)
		e.next = make([]float64, n)
	} else {
		e.grid, e.recycled = getGrid(n)
		e.cur, e.next = e.grid.a, e.grid.b
	}
	e.lo = make([]int, g.RMax+1)
	e.hi = make([]int, g.RMax+1)
	e.nLo = make([]int, g.RMax+1)
	e.nHi = make([]int, g.RMax+1)
	e.rLo, e.rHi = g.RMax+1, -1
	e.nrLo, e.nrHi = g.RMax+1, -1
	if opt.Full {
		for r := range e.lo {
			e.lo[r], e.hi[r] = g.SMin, g.SMax
		}
		e.rLo, e.rHi = 0, g.RMax
	}
	return e, nil
}

// Free clears the live bands of both grids and hands them to the pool that
// NewEngine draws from. The engine must not be used afterwards; a second
// Free is a no-op. A Full-mode engine's grids are not pooled and are simply
// dropped.
func (e *Engine) Free() {
	if e.grid != nil {
		e.clearBand(e.cur, e.lo, e.hi, e.rLo, e.rHi)
		e.clearBand(e.next, e.nLo, e.nHi, e.nrLo, e.nrHi)
		putGrid(e.grid)
	}
	e.grid, e.cur, e.next = nil, nil, nil
}

// Recycled reports whether NewEngine drew this engine's grids from the
// pool of freed grids rather than allocating them.
func (e *Engine) Recycled() bool { return e.recycled }

// clearBand zeroes the live region (row window [rLo, rHi], intervals lo/hi)
// of buffer buf.
func (e *Engine) clearBand(buf []float64, lo, hi []int, rLo, rHi int) {
	for r := rLo; r <= rHi; r++ {
		if lo[r] <= hi[r] {
			base := r*e.width + e.off
			clear(buf[base+lo[r] : base+hi[r]+1])
		}
	}
}

// Add deposits mass at (r, s), saturating both coordinates into the geometry
// box. Non-positive mass is ignored. Add seeds the initial law before the
// first Step and may also deposit between steps; it widens the live region
// to cover the cell (the cells it newly covers are already zero).
func (e *Engine) Add(r, s int, mass float64) {
	if mass <= 0 {
		return
	}
	e.tailOK = false
	if r < 0 {
		r = 0
	}
	if r > e.geo.RMax {
		r = e.geo.RMax
	}
	if s < e.geo.SMin {
		s = e.geo.SMin
	}
	if s > e.geo.SMax {
		s = e.geo.SMax
	}
	if !e.opt.Full {
		if e.rLo > e.rHi { // first deposit
			e.rLo, e.rHi = r, r
			e.lo[r], e.hi[r] = s, s
		} else {
			for rr := r; rr < e.rLo; rr++ {
				e.lo[rr], e.hi[rr] = 1, 0 // empty sentinel
			}
			for rr := e.rHi + 1; rr <= r; rr++ {
				e.lo[rr], e.hi[rr] = 1, 0
			}
			e.rLo, e.rHi = min(e.rLo, r), max(e.rHi, r)
			if e.lo[r] > e.hi[r] { // row was empty
				e.lo[r], e.hi[r] = s, s
			} else {
				e.lo[r], e.hi[r] = min(e.lo[r], s), max(e.hi[r], s)
			}
		}
	}
	e.cur[r*e.width+s+e.off] += mass
}

// Steps returns how many steps have been taken.
func (e *Engine) Steps() int { return e.steps }

// MemBytes returns the heap footprint of the engine's grids and interval
// buffers: what a Curve holds on top of its readouts while a build is in
// flight, until Release frees the engine.
func (e *Engine) MemBytes() int64 {
	return int64(cap(e.cur)+cap(e.next))*8 +
		int64(cap(e.lo)+cap(e.hi)+cap(e.nLo)+cap(e.nHi))*8
}

// Dropped returns the cumulative pruned mass (the ledger). It is exactly
// zero in exact mode (τ = 0).
func (e *Engine) Dropped() float64 { return e.dropped }

// Mass returns the mass currently held at cell (r, s), and zero outside the
// geometry box. It reads the stored cell directly: outside the live region
// that cell is zero by the engine's storage rule, so comparing Mass over the
// whole box (as the conformance suite does against a Full sweep) also checks
// the rule.
func (e *Engine) Mass(r, s int) float64 {
	if r < 0 || r > e.geo.RMax || s < e.geo.SMin || s > e.geo.SMax {
		return 0
	}
	return e.cur[r*e.width+s+e.off]
}

// TailMass returns the mass at s ≥ 0 — the settlement-violation readout
// Pr[µ ≥ 0] of the current step. A banded Step sums it while trimming, in
// the row-major order of the scan below, so both give the same bits; the
// scan serves Full mode, and any state seeded or topped up by Add.
func (e *Engine) TailMass() float64 {
	if e.tailOK {
		return e.tail
	}
	total := 0.0
	for r := e.rLo; r <= e.rHi; r++ {
		lo, hi := e.lo[r], e.hi[r]
		if lo < 0 {
			lo = 0
		}
		if lo > hi {
			continue
		}
		base := r*e.width + e.off
		for s := lo; s <= hi; s++ {
			total += e.cur[base+s]
		}
	}
	return total
}

// Total returns the mass currently on the lattice (excluding the ledger).
func (e *Engine) Total() float64 {
	total := 0.0
	for r := e.rLo; r <= e.rHi; r++ {
		lo, hi := e.lo[r], e.hi[r]
		if lo > hi {
			continue
		}
		base := r*e.width + e.off
		for s := lo; s <= hi; s++ {
			total += e.cur[base+s]
		}
	}
	return total
}

// shiftAdd accumulates f · src[s] into dst[s+shift] for s ∈ [lo, hi], with
// the destination saturated into [SMin, SMax]. Only the extreme source cell
// can saturate (|shift| = 1), which it does by accumulating into the
// boundary cell. Returns the written destination range (empty when lo > hi
// or f == 0).
func (e *Engine) shiftAdd(dst, src []float64, lo, hi, shift int, f float64) (int, int) {
	if lo > hi || f == 0 {
		return 1, 0
	}
	o := e.off
	wLo, wHi := lo+shift, hi+shift
	if wLo < e.geo.SMin { // shift = −1, lo == SMin
		dst[e.geo.SMin+o] += float64(f * src[e.geo.SMin+o])
		lo++
		wLo = e.geo.SMin
		if lo > hi {
			return wLo, wLo
		}
	}
	if wHi > e.geo.SMax { // shift = +1, hi == SMax
		dst[e.geo.SMax+o] += float64(f * src[e.geo.SMax+o])
		hi--
		wHi = e.geo.SMax
		if lo > hi {
			return wHi, wHi
		}
	}
	d := dst[lo+shift+o : hi+shift+o+1]
	s := src[lo+o : hi+o+1]
	_ = s[len(d)-1]
	for i := range d {
		d[i] += float64(f * s[i])
	}
	return wLo, wHi
}

// honestInto accumulates the honest-step flow of source row src (live
// interval [lo, hi]) into destination row dst, handling the s = 0 boundary:
// for srcR > 0 all honest mass at s = 0 stays at s' = 0; for srcR == 0 the
// uniquely honest share descends to s' = −1 and the multiply honest share
// stays (Theorem 5's µ-recurrence).
func (e *Engine) honestInto(dst, src []float64, lo, hi, srcR int) {
	q := e.st.Ph + e.st.PH
	o := e.off
	if hi < 0 || lo > 0 { // interval misses s = 0: uniform descent
		e.shiftAdd(dst, src, lo, hi, -1, q)
		return
	}
	e.shiftAdd(dst, src, lo, -1, -1, q)
	m := src[o]
	if m != 0 {
		if srcR > 0 {
			dst[o] += float64(q * m)
		} else {
			dst[o-1] += float64(e.st.Ph * m) // s' = −1 ≥ SMin by geometry validation
			dst[o] += float64(e.st.PH * m)
		}
	}
	e.shiftAdd(dst, src, 1, hi, -1, q)
}

// accumulate writes destination row rd of next into dst by clearing its
// write range and adding each contributing source row's flow, and returns
// that range (empty, lo > hi, when no source row is live). It reads source
// cells only inside their live intervals. Full mode steps every row this
// way; a banded Step uses it for the boundary rows the fused pass does not
// cover.
func (e *Engine) accumulate(dst []float64, rd int) (int, int) {
	g := e.geo
	// Contributing source rows and the union of their live intervals.
	// A-flow arrives from rd−1 (and from rd itself when rd == RMax, via
	// reach saturation); honest flow arrives from rd+1 (suppressed when
	// StickyReach pins row RMax), from rd itself when rd == 0 (reach
	// reflection) or when rd == RMax under StickyReach.
	sLo, sHi := g.SMax+1, g.SMin-1
	srcA := rd - 1
	if e.live(srcA) {
		sLo, sHi = min(sLo, e.lo[srcA]), max(sHi, e.hi[srcA])
	} else {
		srcA = -1
	}
	srcASat := -1
	if rd == g.RMax && e.live(rd) {
		srcASat = rd
		sLo, sHi = min(sLo, e.lo[rd]), max(sHi, e.hi[rd])
	}
	srcH := rd + 1
	if srcH > g.RMax || (e.st.StickyReach && srcH == g.RMax) || !e.live(srcH) {
		srcH = -1
	} else {
		sLo, sHi = min(sLo, e.lo[srcH]), max(sHi, e.hi[srcH])
	}
	srcHSelf := -1
	if (rd == 0 || (e.st.StickyReach && rd == g.RMax)) && e.live(rd) {
		srcHSelf = rd
		sLo, sHi = min(sLo, e.lo[rd]), max(sHi, e.hi[rd])
	}
	if sLo > sHi {
		return 1, 0
	}
	// Conservative write range: every flow lands within one cell of a live
	// source cell (and the s = 0 stay-flow lands inside any source interval
	// containing 0). Zero it, accumulate, then let the trim pass trim the
	// at-most-two unwritten edge cells.
	zLo, zHi := max(sLo-1, g.SMin), min(sHi+1, g.SMax)
	clear(dst[zLo+e.off : zHi+e.off+1])

	if srcA >= 0 {
		e.shiftAdd(dst, e.row(e.cur, srcA), e.lo[srcA], e.hi[srcA], 1, e.st.PA)
	}
	if srcASat >= 0 {
		e.shiftAdd(dst, e.row(e.cur, srcASat), e.lo[srcASat], e.hi[srcASat], 1, e.st.PA)
	}
	if srcH >= 0 {
		e.honestInto(dst, e.row(e.cur, srcH), e.lo[srcH], e.hi[srcH], srcH)
	}
	if srcHSelf >= 0 {
		e.honestInto(dst, e.row(e.cur, srcHSelf), e.lo[srcHSelf], e.hi[srcHSelf], srcHSelf)
	}
	return zLo, zHi
}

// fusedRow writes cells s ∈ [zLo, zHi] of an interior destination row
// (0 < rd < RMax, and row rd+1 not pinned by StickyReach) in one pass from
// its A-source row a = cur[rd−1] and honest source row h = cur[rd+1]. Each
// cell is the sum accumulate forms, term for term and in its order: the
// A-flow first (at SMax the saturated a[SMax] before a[SMax−1]), then the
// honest flow (at SMin the saturated h[SMin] before h[SMin+1]; at s = 0 the
// staying h[0] before the descending h[1]; none into s = −1, since h's
// reach is > 0). Source cells outside their live intervals are zero, all
// terms are ≥ +0, and 0 + x == x for x ≥ +0, so reading whole ranges and
// dropping accumulate's leading zero leave every bit unchanged.
func (e *Engine) fusedRow(d, a, h []float64, zLo, zHi int) {
	pa, q := e.st.PA, e.st.Ph+e.st.PH
	o, sMin, sMax := e.off, e.geo.SMin, e.geo.SMax
	s := zLo
	if s == sMin {
		if sMin == -1 { // h[0] stays at 0; only h[−1] saturates here
			d[o-1] = float64(q * h[o-1])
		} else {
			d[0] = float64(q*h[0]) + float64(q*h[1])
		}
		s++
	}
	s = stencilRun(d, a, h, s+o, min(zHi, -2)+o, pa, q) - o
	if s == -1 && s <= zHi {
		d[o-1] = float64(pa * a[o-2])
		s++
	}
	if s == 0 && s <= zHi {
		d[o] = float64(pa*a[o-1]) + float64(q*h[o]) + float64(q*h[o+1])
		s++
	}
	s = stencilRun(d, a, h, s+o, min(zHi, sMax-1)+o, pa, q) - o
	if s == sMax && s <= zHi {
		d[sMax+o] = float64(pa*a[sMax+o]) + float64(pa*a[sMax+o-1])
	}
}

// stencilRun writes d[i] = PA·a[i−1] + q·h[i+1] for buffer indices
// i ∈ [i0, i1] (none when i0 > i1) and returns the next index to write.
func stencilRun(d, a, h []float64, i0, i1 int, pa, q float64) int {
	if i0 > i1 {
		return i0
	}
	dd := d[i0 : i1+1]
	aa := a[i0-1 : i1]
	hh := h[i0+1 : i1+2]
	_, _ = aa[len(dd)-1], hh[len(dd)-1]
	for i := range dd {
		dd[i] = float64(pa*aa[i]) + float64(q*hh[i])
	}
	return i1 + 1
}

// row returns row r of buffer buf.
func (e *Engine) row(buf []float64, r int) []float64 {
	return buf[r*e.width : r*e.width+e.width]
}

// band returns row r's live interval in cur, empty (lo > hi) when the row
// is outside the live window.
func (e *Engine) band(r int) (int, int) {
	if r < e.rLo || r > e.rHi {
		return 1, 0
	}
	return e.lo[r], e.hi[r]
}

// Step advances the chain by one step and sums the step's TailMass
// readout as it goes.
func (e *Engine) Step() { e.step(true) }

// Advance is Step without the readout sum, for a step whose TailMass
// nobody reads — a ladder rung replaying the steps below the horizons it
// stores. The mass, the bands and the ledger come out bit for bit as
// after Step; a TailMass call that follows scans instead.
func (e *Engine) Advance() { e.step(false) }

func (e *Engine) step(readout bool) {
	e.steps++
	if e.opt.Full {
		e.stepFull()
		return
	}
	if e.rLo > e.rHi {
		return
	}
	g := e.geo
	o := e.off
	rdLo, rdHi := max(e.rLo-1, 0), min(e.rHi+1, g.RMax)

	// next still holds the state of two steps ago. Clear the rows of its
	// band that this step does not rewrite; each rewritten row clears its
	// own leftovers below.
	e.clearBand(e.next, e.nLo, e.nHi, e.nrLo, min(e.nrHi, rdLo-1))
	e.clearBand(e.next, e.nLo, e.nHi, max(e.nrLo, rdHi+1), e.nrHi)

	// One pass per destination row: write it, clear the old band's cells
	// outside the write range, trim band edges with mass ≤ τ into the
	// ledger, and sum the s ≥ 0 readout in TailMass's row-major order.
	tau := e.opt.Tau
	pa, q := e.st.PA, e.st.Ph+e.st.PH
	tail, dropped := 0.0, e.dropped
	newRLo, newRHi := g.RMax+1, -1
	for rd := rdLo; rd <= rdHi; rd++ {
		dst := e.row(e.next, rd)
		oLo, oHi := 1, 0
		if rd >= e.nrLo && rd <= e.nrHi {
			oLo, oHi = e.nLo[rd], e.nHi[rd]
		}
		var lo, hi int
		if rd > 0 && rd < g.RMax && !(e.st.StickyReach && rd+1 == g.RMax) {
			aLo, aHi := e.band(rd - 1)
			hLo, hHi := e.band(rd + 1)
			if aLo == aHi && hLo == hHi && hLo == aLo+2 && aLo >= 0 {
				// One-cell row: each source row is a single live cell on
				// the diagonal through s = aLo+1 ≥ 1, the one cell of the
				// row fusedRow would write non-zero, and this is the
				// expression stencilRun writes it with.
				lo, hi = aLo+1, aLo+1
				dst[lo+o] = float64(pa*e.cur[(rd-1)*e.width+aLo+o]) + float64(q*e.cur[(rd+1)*e.width+hLo+o])
			} else {
				switch {
				case aLo > aHi:
					lo, hi = hLo, hHi
				case hLo > hHi:
					lo, hi = aLo, aHi
				default:
					lo, hi = min(aLo, hLo), max(aHi, hHi)
				}
				if lo <= hi {
					lo, hi = max(lo-1, g.SMin), min(hi+1, g.SMax)
					e.fusedRow(dst, e.row(e.cur, rd-1), e.row(e.cur, rd+1), lo, hi)
				}
			}
		} else {
			lo, hi = e.accumulate(dst, rd)
		}
		if oLo <= oHi {
			if lo > hi {
				clear(dst[oLo+o : oHi+o+1])
			} else {
				if oLo < lo {
					clear(dst[oLo+o : min(oHi, lo-1)+o+1])
				}
				if oHi > hi {
					clear(dst[max(oLo, hi+1)+o : oHi+o+1])
				}
			}
		}
		for lo <= hi && dst[lo+o] <= tau {
			dropped += dst[lo+o]
			dst[lo+o] = 0
			lo++
		}
		for lo <= hi && dst[hi+o] <= tau {
			dropped += dst[hi+o]
			dst[hi+o] = 0
			hi--
		}
		e.nLo[rd], e.nHi[rd] = lo, hi
		if lo > hi {
			continue
		}
		newRLo, newRHi = min(newRLo, rd), max(newRHi, rd)
		if readout && hi >= 0 {
			for _, m := range dst[max(lo, 0)+o : hi+o+1] {
				tail += m
			}
		}
	}
	e.cur, e.next = e.next, e.cur
	e.lo, e.nLo = e.nLo, e.lo
	e.hi, e.nHi = e.nHi, e.hi
	e.rLo, e.nrLo = newRLo, e.rLo
	e.rHi, e.nrHi = newRHi, e.rHi
	e.tail, e.tailOK = tail, readout
	e.dropped = dropped
}

// stepFull is Step in Full mode: every row of the fixed full window is
// rewritten by accumulate, nothing is pruned, and TailMass scans.
func (e *Engine) stepFull() {
	g := e.geo
	for rd := 0; rd <= g.RMax; rd++ {
		dst := e.row(e.next, rd)
		zLo, zHi := e.accumulate(dst, rd)
		if zLo > zHi {
			clear(dst)
			continue
		}
		clear(dst[:zLo+e.off])
		clear(dst[zHi+e.off+1:])
	}
	e.cur, e.next = e.next, e.cur
}

// live reports whether source row r is inside the live window with a
// non-empty interval.
func (e *Engine) live(r int) bool {
	return r >= e.rLo && r <= e.rHi && e.lo[r] <= e.hi[r]
}
