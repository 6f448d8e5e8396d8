package deltasync

import (
	"fmt"

	"multihonest/internal/charstring"
)

// This file is the streaming (symbol-at-a-time, allocation-free in steady
// state) form of the Δ-synchronous machinery: ReduceStream is the online
// ρ_Δ reduction map, and SettledStream the online Lemma 2 certificate
// scanner built on it. Together they replace, for the Monte-Carlo hot
// path, the slice pipeline Reduce → catalan.Analyze → walk.SuffixMax that
// allocates five O(T) slices per sample; the slice pipeline remains the
// reference oracle (TestSettledStreamEquivalence).

// ReduceStream applies the reduction map ρ_Δ of Definition 22 online.
// Because an honest slot's fate (kept, or demoted to adversarial) depends
// on the next Δ symbols, the stream runs at most Δ symbols behind the
// input: an honest slot is held pending together with the adversarial
// slots that arrive behind it, and the whole run is emitted in slot order
// the moment the pending slot resolves. Feeding exactly T symbols always
// drains the pipeline (a pending slot at p has p + Δ ≤ T and resolves when
// slot p+Δ is fed), so no flush call exists.
//
// Emit receives each reduced symbol with its original 1-based slot.
// The zero value with Delta, T and Emit set is ready; Reset starts a new
// string, keeping scratch capacity. Not safe for concurrent use.
type ReduceStream struct {
	Delta int // maximum network delay Δ ≥ 0
	T     int // total input length; the demote-near-end rule needs it upfront
	Emit  func(sym charstring.Symbol, slot int)

	raw         int // symbols consumed
	hasPending  bool
	pendingSym  charstring.Symbol
	pendingSlot int
	quietLeft   int   // quiet symbols still required to keep the pending slot
	queue       []int // slots of adversarial symbols deferred behind the pending slot
}

// Reset starts a new input string.
func (rs *ReduceStream) Reset() {
	rs.raw = 0
	rs.hasPending = false
	rs.queue = rs.queue[:0]
}

// Feed consumes the next input symbol, emitting any reduced symbols whose
// fate it resolves.
func (rs *ReduceStream) Feed(sym charstring.Symbol) error {
	rs.raw++
	slot := rs.raw
	switch sym {
	case charstring.Empty:
		if rs.hasPending {
			rs.tick()
		}
	case charstring.Adversarial:
		if rs.hasPending {
			rs.queue = append(rs.queue, slot)
			rs.tick()
		} else {
			rs.Emit(charstring.Adversarial, slot)
		}
	case charstring.UniqueHonest, charstring.MultiHonest:
		if rs.hasPending {
			// An honest leader inside the pending slot's Δ-window: the
			// pending slot fails the quiet test and is demoted.
			rs.resolve(false)
		}
		if slot+rs.Delta > rs.T {
			// Definition 22 demotes an honest slot whose quiet window runs
			// past the end of the string.
			rs.Emit(charstring.Adversarial, slot)
		} else if rs.Delta == 0 {
			rs.Emit(sym, slot)
		} else {
			rs.hasPending = true
			rs.pendingSym, rs.pendingSlot = sym, slot
			rs.quietLeft = rs.Delta
		}
	default:
		return fmt.Errorf("deltasync: invalid symbol %v at slot %d", sym, slot)
	}
	return nil
}

// tick counts one quiet ({⊥, A}) symbol against the pending slot's window.
func (rs *ReduceStream) tick() {
	rs.quietLeft--
	if rs.quietLeft == 0 {
		rs.resolve(true)
	}
}

// resolve emits the pending slot (kept honest iff quiet) followed by the
// adversarial slots queued behind it, in slot order.
func (rs *ReduceStream) resolve(quiet bool) {
	sym := charstring.Adversarial
	if quiet {
		sym = rs.pendingSym
	}
	rs.hasPending = false
	rs.Emit(sym, rs.pendingSlot)
	for _, a := range rs.queue {
		rs.Emit(charstring.Adversarial, a)
	}
	rs.queue = rs.queue[:0]
}

// redCand is one pending certificate candidate of a SettledStream: a
// uniquely honest, so-far-left-Catalan reduced slot in the k-window.
type redCand struct {
	ri int // 1-based reduced index
	S  int // reduced walk value at ri
}

// SettledStream is the online form of Settled: it consumes the raw
// semi-synchronous string symbol-by-symbol and decides the Lemma 2
// (k, Δ)-settlement certificate for slot s. It must be fed exactly T
// symbols unless it reports an early decision.
//
// A certificate candidate is a uniquely honest reduced slot c in the
// reduced window [π(s), π(s)+k−1] that is left-Catalan. It dies when the
// reduced walk climbs above S_c (right-Catalan fails) or, from reduced
// index c+k on, above S_c − Δ (the Lemma 2 walk-margin fails; violations
// of that rule can only first occur at the arming index c+k or on a rise,
// both of which the per-emission scan observes). A candidate that survives
// to the end with c+k within the reduced string is exactly an oracle
// certificate. Once the window has closed and no candidate is alive, no
// certificate can ever form: the verdict "unsettled" is decided and
// feeding may stop.
//
// Not safe for concurrent use; Reset starts a new sample reusing scratch.
type SettledStream struct {
	s, k, delta int

	rs ReduceStream

	ri      int // reduced symbols seen
	ps      int // reduced index of slot s (0 until seen)
	S, minS int // reduced walk value and strict prefix minimum
	cand    []redCand
	err     error
}

// NewSettledStream builds the streaming certificate scanner for slot s,
// horizon k, delay Δ over inputs of exactly T symbols.
func NewSettledStream(s, k, delta, T int) (*SettledStream, error) {
	if s < 1 || s > T {
		return nil, fmt.Errorf("deltasync: slot %d outside [1,%d]", s, T)
	}
	if k < 1 || delta < 0 {
		return nil, fmt.Errorf("deltasync: invalid k=%d delta=%d", k, delta)
	}
	st := &SettledStream{s: s, k: k, delta: delta}
	st.rs = ReduceStream{Delta: delta, T: T, Emit: st.emit}
	return st, nil
}

// Reset starts a new sample.
func (st *SettledStream) Reset() {
	st.rs.Reset()
	st.ri, st.ps, st.S, st.minS = 0, 0, 0, 0
	st.cand = st.cand[:0]
	st.err = nil
}

// CopyFrom overwrites st with a snapshot of src (which must have been
// built with the same (s, k, Δ, T)), reusing scratch capacity. The
// ReduceStream's Emit callback keeps pointing at st, not src. It exists
// for the splitting engine of package rare.
func (st *SettledStream) CopyFrom(src *SettledStream) {
	st.s, st.k, st.delta = src.s, src.k, src.delta
	st.rs.Delta, st.rs.T = src.rs.Delta, src.rs.T
	st.rs.raw = src.rs.raw
	st.rs.hasPending = src.rs.hasPending
	st.rs.pendingSym, st.rs.pendingSlot = src.rs.pendingSym, src.rs.pendingSlot
	st.rs.quietLeft = src.rs.quietLeft
	st.rs.queue = append(st.rs.queue[:0], src.rs.queue...)
	st.ri, st.ps, st.S, st.minS = src.ri, src.ps, src.S, src.minS
	st.cand = append(st.cand[:0], src.cand...)
	st.err = src.err
}

// ReducedLen returns the number of reduced symbols emitted so far.
func (st *SettledStream) ReducedLen() int { return st.ri }

// WindowStart returns the reduced index of slot s, or 0 while slot s has
// not yet been emitted by the reduction.
func (st *SettledStream) WindowStart() int { return st.ps }

// LiveCandidates returns the number of certificate candidates still alive.
func (st *SettledStream) LiveCandidates() int { return len(st.cand) }

// Feed consumes the next raw symbol and reports whether the verdict is
// already decided (which, before the end of the string, can only be "no
// certificate exists": a confirmation must survive to the final symbol).
func (st *SettledStream) Feed(sym charstring.Symbol) (decided bool) {
	if st.err != nil {
		return true
	}
	if err := st.rs.Feed(sym); err != nil {
		st.err = err
		return true
	}
	return st.ps != 0 && st.ri >= st.ps+st.k && len(st.cand) == 0
}

// emit consumes one reduced symbol (the ReduceStream callback).
func (st *SettledStream) emit(sym charstring.Symbol, slot int) {
	st.ri++
	if slot == st.s {
		st.ps = st.ri
	}
	v := st.S + sym.Walk()
	st.S = v
	if n := len(st.cand); n > 0 {
		keep := st.cand[:0]
		for _, c := range st.cand {
			if v > c.S {
				continue // right-Catalan failed
			}
			if st.ri >= c.ri+st.k && v > c.S-st.delta {
				continue // Lemma 2 walk margin failed
			}
			keep = append(keep, c)
		}
		st.cand = keep
	}
	if v < st.minS {
		// Strict record low: the reduced slot is left-Catalan.
		if sym == charstring.UniqueHonest && st.ps != 0 && st.ri >= st.ps && st.ri <= st.ps+st.k-1 {
			st.cand = append(st.cand, redCand{ri: st.ri, S: v})
		}
		st.minS = v
	}
}

// Finish reports whether the certificate exists (slot s is settled). After
// a full feed the surviving candidates are exactly those the oracle
// Settled accepts, provided their margin window c+k fits inside the
// reduced string.
func (st *SettledStream) Finish() (settled bool, err error) {
	if st.err != nil {
		return false, st.err
	}
	if st.ps == 0 {
		return false, fmt.Errorf("deltasync: slot %d is empty; settlement queries need a leader slot", st.s)
	}
	for _, c := range st.cand {
		if c.ri+st.k <= st.ri {
			return true, nil
		}
	}
	return false, nil
}
