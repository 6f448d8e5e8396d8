package lattice

import (
	"fmt"
	"math"
)

// Builder constructs a fresh, seeded engine whose sweep is faithful (exact,
// or rigorously conservative for sticky-reach chains) for every horizon
// t ≤ kCap. Fixed-geometry chains — the saturating upper-bound chain, whose
// caps do not depend on the horizon — may ignore kCap. The Curve alone owns
// the engine it gets and frees it (Engine.Free) on a ladder rung change and
// on Release, so a Builder must never return an engine anything else holds.
type Builder func(kCap int) (*Engine, error)

// Curve is an incrementally extensible settlement curve: the per-horizon
// readout Pr[s ≥ 0] of one lattice chain, together with the pruning ledger
// that brackets it. Extending a Curve from horizon k to 2k continues the
// cached sweep instead of restarting it — for fixed-geometry chains every
// lattice step is taken exactly once no matter how the horizon grows, which
// is what makes doubling searches (core.ConfirmationDepth) linear instead
// of quadratic in the final depth.
//
// # Canonical geometry ladder
//
// For horizon-dependent geometries (the exact chain, whose caps must cover
// the largest horizon) the engine capacity is not chosen from the request
// history but from a fixed ladder: the readout at horizon t is always
// computed by an engine built with capacity capFor(t) — the smallest
// power of two ≥ t, floored at ladderFloor. Growth walks the ladder step
// by step, silently replaying the deterministic sweep through horizons
// already published and appending only the slots the new step owns; a
// published value is never overwritten. The geometry under which slot t
// was computed is therefore a function of t alone, which makes the value
// at horizon t byte-identical across ALL curves sharing a Builder — no
// matter how Extend calls were batched, interleaved with Restore, or
// ordered on the way to t. This bitwise path-independence is what lets
// internal/oracle promise that a replica failover, a snapshot restart, or
// a cold verifier recompute produces the very same float64 answers
// (the failover-answer-identity conformance invariant). The replayed
// prefixes cost at most a small constant factor over one uninterrupted
// sweep (capacities are geometric, so the ladder work telescopes).
//
// # Concurrency contract
//
// A Curve is NOT safe for unguarded concurrent use: Extend mutates the
// cached engine and readout slices, and the readers (Lower, Upper, Values,
// ValuesUpTo, Len, MemBytes) observe them without synchronization. The
// contract for a shared curve is single-owner locking: exactly one lock
// guards both Extend and every read of the same handle. Extension is
// idempotent (Extend(k) with k ≤ Len() touches nothing) and deterministic,
// so serialized extend-then-read under one lock yields answers identical
// to a private cold build — this is the property internal/oracle relies on
// when it extends hot cached curves in place under per-entry locks.
//
// # Residency
//
// A Curve holds two kinds of state: the O(k) readouts every answer is
// read from, and the engine's O(cap²) mass grid, which is needed only to
// extend past Len(). Release frees the grid and leaves the readouts, the
// same state Restore produces; the next Extend past Len() rebuilds and
// replays from step zero through the canonical ladder, so its values are
// byte-identical to those of a curve that never released (the
// readout-residency-identity conformance invariant). A search that
// extends step after step (core.ConfirmationDepth) keeps its engine; a
// cache that answers mostly from readouts (internal/oracle) releases it
// once each request's extension is done, and a one-shot sweep
// (settlement.ViolationCurve and its kin) releases it once read.
//
// A freed grid, its live bands cleared, goes to a pool keyed by size, and
// the next NewEngine of that size takes it instead of allocating and
// zeroing a fresh one: after the first cold build, the next builds of the
// same ladder rungs allocate only their readouts and interval buffers.
type Curve struct {
	build Builder
	fixed bool

	eng   *Engine
	cap   int       // horizons ≤ cap are faithful for eng's geometry
	lower []float64 // lower[t-1]: band mass at s ≥ 0 after t steps
	drop  []float64 // drop[t-1]: cumulative pruned mass after t steps
}

// NewCurve wraps a Builder. fixedGeometry declares that the builder's
// engine is faithful at every horizon regardless of kCap.
func NewCurve(b Builder, fixedGeometry bool) *Curve {
	return &Curve{build: b, fixed: fixedGeometry}
}

// Len returns the largest horizon computed so far.
func (c *Curve) Len() int { return len(c.lower) }

// ladderFloor is the smallest canonical engine capacity. Small enough
// that a cache full of shallow curves stays cheap, large enough that
// shallow horizons don't churn through several rebuilds.
const ladderFloor = 16

// capFor returns the canonical engine capacity covering horizon t: the
// smallest power of two ≥ t, floored at ladderFloor. Making the capacity
// a pure function of the horizon — never of the extension history — is
// what pins the float64 readout at each horizon to a single canonical
// bit pattern (see the type comment).
func capFor(t int) int {
	c := ladderFloor
	for c < t {
		c <<= 1
	}
	return c
}

// Extend advances the cached sweep so that every horizon 1..k is available.
// It is a no-op when k ≤ Len(). Published readouts are never recomputed:
// a rebuild at the next ladder capacity replays the deterministic sweep
// silently through the horizons already on record and appends from there.
func (c *Curve) Extend(k int) error {
	if k < 1 {
		return fmt.Errorf("lattice: horizon %d must be ≥ 1", k)
	}
	for len(c.lower) < k {
		if c.eng == nil || (!c.fixed && capFor(len(c.lower)+1) != c.cap) {
			kCap := k
			if !c.fixed {
				kCap = capFor(len(c.lower) + 1)
			}
			c.Release()
			eng, err := c.build(kCap)
			if err != nil {
				return err
			}
			c.eng, c.cap = eng, kCap
			// Replay through the published prefix without touching it: the
			// sweep is deterministic, so the engine lands in exactly the
			// state that produced (or would have produced) those readouts.
			for t := 0; t < len(c.lower); t++ {
				c.eng.Step()
			}
		}
		stop := k
		if !c.fixed && c.cap < k {
			stop = c.cap // this ladder step owns horizons ≤ cap only
		}
		for t := len(c.lower); t < stop; t++ {
			c.eng.Step()
			c.lower = append(c.lower, c.eng.TailMass())
			c.drop = append(c.drop, c.eng.Dropped())
		}
	}
	return nil
}

// Lower returns the computed band mass at horizon t ∈ [1, Len()]: a lower
// end of the bracket (and the exact chain value when τ = 0).
func (c *Curve) Lower(t int) float64 { return c.lower[t-1] }

// Upper returns the certified upper end of the bracket at horizon t:
// Lower(t) plus all mass pruned so far, clamped to 1.
func (c *Curve) Upper(t int) float64 {
	u := c.lower[t-1] + c.drop[t-1]
	if u > 1 {
		return 1
	}
	return u
}

// Bracket returns [Lower(t), Upper(t)]. The exact value of the unpruned
// chain at horizon t always lies inside.
func (c *Curve) Bracket(t int) (lo, hi float64) { return c.Lower(t), c.Upper(t) }

// Dropped returns the total pruned mass over the sweep so far.
func (c *Curve) Dropped() float64 {
	if n := len(c.drop); n > 0 {
		return c.drop[n-1]
	}
	return 0
}

// Values returns a copy of the lower curve for horizons 1..Len().
func (c *Curve) Values() []float64 {
	out := make([]float64, len(c.lower))
	copy(out, c.lower)
	return out
}

// ValuesUpTo returns a copy of the lower curve for horizons 1..k, which
// must satisfy k ≤ Len(). Readers that share a curve take copies so that a
// later in-place Extend by the owning lock holder never aliases data a
// previous caller is still reading.
func (c *Curve) ValuesUpTo(k int) []float64 {
	out := make([]float64, k)
	copy(out, c.lower[:k])
	return out
}

// Release frees the cached engine, handing its grids back for the next
// build to reuse, and keeps the readouts: every horizon 1..Len() still
// serves, and the next Extend past Len() rebuilds the engine and replays
// the sweep from step zero, exactly as after Restore.
func (c *Curve) Release() {
	if c.eng != nil {
		c.eng.Free()
	}
	c.eng, c.cap = nil, 0
}

// ReadoutBytes returns the heap footprint of the readout slices alone:
// what a released curve keeps resident.
func (c *Curve) ReadoutBytes() int64 { return int64(cap(c.lower)+cap(c.drop)) * 8 }

// MemBytes returns the resident heap footprint of the handle: the readout
// slices plus the cached engine's buffers, if it holds one. Cache owners
// (internal/oracle) use it to account resident curve bytes per entry.
func (c *Curve) MemBytes() int64 {
	n := c.ReadoutBytes()
	if c.eng != nil {
		n += c.eng.MemBytes()
	}
	return n
}

// State returns copies of the curve's readout slices — the per-horizon
// lower values and cumulative pruned-mass ledger for horizons 1..Len().
// Together with the Builder these fully determine every answer the curve
// can give, which is what snapshot serialization (internal/oracle)
// persists: the engine's transient mass grid is deliberately excluded, so
// a restored curve re-runs the deterministic sweep if it is ever extended
// past the snapshotted horizon.
func (c *Curve) State() (lower, drop []float64) {
	lower = make([]float64, len(c.lower))
	copy(lower, c.lower)
	drop = make([]float64, len(c.drop))
	copy(drop, c.drop)
	return lower, drop
}

// Restore primes a fresh curve with previously computed readouts, after
// validating that they are a plausible sweep: equal lengths, every lower
// value a probability, and a finite, non-negative, non-decreasing ledger.
// The slices are copied. Horizons 1..len(lower) then serve without any
// engine work; the first Extend past the restored horizon rebuilds the
// engine and replays the deterministic sweep from step zero, yielding
// values byte-identical to an uninterrupted cold build (the property the
// snapshot-roundtrip-identity conformance invariant pins).
//
// Restore refuses non-empty curves: restored state never overwrites
// computed state.
func (c *Curve) Restore(lower, drop []float64) error {
	if c.Len() > 0 {
		return fmt.Errorf("lattice: Restore on a curve with %d computed horizons", c.Len())
	}
	if len(lower) != len(drop) {
		return fmt.Errorf("lattice: Restore length mismatch: %d lower vs %d drop", len(lower), len(drop))
	}
	prev := 0.0
	for i := range lower {
		if !(lower[i] >= 0 && lower[i] <= 1) { // positive form rejects NaN
			return fmt.Errorf("lattice: Restore lower[%d] = %v outside [0, 1]", i, lower[i])
		}
		d := drop[i]
		if !(d >= prev) || math.IsInf(d, 0) {
			return fmt.Errorf("lattice: Restore drop[%d] = %v not a finite non-decreasing ledger (prev %v)", i, d, prev)
		}
		prev = d
	}
	c.lower = append(c.lower[:0], lower...)
	c.drop = append(c.drop[:0], drop...)
	c.Release()
	return nil
}
