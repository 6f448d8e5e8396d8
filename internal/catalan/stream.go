package catalan

import (
	"math/bits"

	"multihonest/internal/charstring"
)

// Cand is one pending candidate of a Stream: a slot observed to be
// left-Catalan whose right-Catalan status is still open. If it survives to
// the end of the string it is a Catalan slot of the whole string.
type Cand struct {
	Slot int               // 1-based slot index
	S    int               // walk value S_Slot — a strict record low at push time
	Sym  charstring.Symbol // the slot's symbol (h or H; only honest slots step down)
}

// Stream is the online Catalan scanner: the symbol-at-a-time counterpart of
// Analyze, with O(1) amortized work per symbol and no per-string
// allocation (the candidate stack is reused across Reset calls).
//
// Left-Catalan status is decided the moment a slot arrives — s is
// left-Catalan iff its walk value S_s strictly undercuts the running prefix
// minimum. Right-Catalan status is resolved through the pending-candidate
// stack tracked against the running walk: candidate s dies as soon as the
// walk climbs above S_s (some r > s has S_r > S_s), and survives to the end
// exactly when it is right-Catalan. Because every pushed candidate is a
// strict record low, the stack's S values are strictly decreasing from
// bottom to top, so kills are pops: when the walk rises to v, exactly the
// top candidates with S < v die. After T symbols, Pending() is exactly
// Analyze(w).Slots() with each slot's symbol attached.
//
// A Stream carries mutable scratch and is not safe for concurrent use.
// The zero value is ready; Reset starts a new string.
type Stream struct {
	// Filter, when non-nil, restricts which left-Catalan slots are tracked
	// as candidates (e.g. "uniquely honest slots inside the E1 window").
	// Slots rejected by the filter still update the walk and the prefix
	// minimum — only the candidate stack is thinned. Set it once before the
	// first Feed; it must not change between Reset and the end of a string.
	Filter func(slot int, sym charstring.Symbol) bool

	t    int // symbols consumed
	s    int // walk value S_t
	min  int // min_{0 ≤ j ≤ t-1} S_j before the current symbol, then updated
	cand []Cand
}

// Reset discards the current string and starts a new one, keeping the
// candidate stack's capacity.
func (st *Stream) Reset() {
	st.t, st.s, st.min = 0, 0, 0
	st.cand = st.cand[:0]
}

// Feed consumes the next symbol and reports whether the slot was pushed as
// a candidate (i.e. is left-Catalan and passed the filter).
func (st *Stream) Feed(sym charstring.Symbol) (pushed bool) {
	st.t++
	v := st.s + sym.Walk()
	if v > st.s {
		// The walk rose (adversarial symbol): kill the candidates it
		// overtook. No candidate can be pushed and the minimum is unmoved.
		st.s = v
		n := len(st.cand)
		for n > 0 && st.cand[n-1].S < v {
			n--
		}
		st.cand = st.cand[:n]
		return false
	}
	st.s = v
	if v < st.min {
		// Strict record low ⇒ left-Catalan (only honest symbols step down,
		// so the slot is honest by construction).
		if st.Filter == nil || st.Filter(st.t, sym) {
			st.cand = append(st.cand, Cand{Slot: st.t, S: v, Sym: sym})
			pushed = true
		}
		st.min = v
	}
	return pushed
}

// FeedBlockCand consumes a block of up to n ≤ 64 symbols at once, given
// only packed masks (bit i describes the block's i-th symbol, slot
// Len()+1+i): aMask marks adversarial symbols (+1 steps; clear bits are
// honest −1 steps — the synchronous alphabet only, ⊥ walks 0 and must go
// through Feed), candMask marks the slots the caller's filter accepts as
// candidates, and uhMask marks uniquely honest symbols (consulted only to
// attribute Cand.Sym on a push). It is exactly equivalent to feeding the
// symbols through Feed with a Filter that accepts exactly the candMask
// bits: record lows outside candMask still move the minimum, kills pop
// exactly the overtaken candidates, and killS tracks only genuine pushes.
//
// The loop never walks bits in full bytes: each byte resolves against
// precomputed walk tables. Pops need only the byte's maximum prefix
// height (a pre-existing candidate dies iff that maximum strictly exceeds
// its S, wherever in the byte the peak sits). Pushes can only happen at
// strict-record-low positions, which walkByteLow reads off from the
// entry height above the running minimum; of those, only positions with
// a candMask bit push, and a within-byte push survives to the byte
// boundary iff no later prefix height strictly exceeds its walk value
// (walkByteSufMax) — a push that dies inside the byte is unobservable
// outside FeedBlockCand and is simply never materialized. Since pushes
// carry strictly decreasing S and pops only compare against the byte
// maximum, stack order is preserved exactly as in the scalar loop.
func (st *Stream) FeedBlockCand(aMask, candMask, uhMask uint64, n int) {
	s, mn := st.s, st.min
	// killS caches the top candidate's S. The stack's S values strictly
	// decrease bottom to top and s never exceeds the top's S between
	// steps (rising above it pops immediately), so a kill is needed
	// exactly when a step takes s above killS.
	killS := maxInt // when no candidate is pending
	if k := len(st.cand); k > 0 {
		killS = st.cand[k-1].S
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		b := uint8(aMask >> uint(i))
		if maxPref := s + int(walkByteMax[b]); maxPref > killS {
			// The byte's peak overtakes candidates: pop everything below
			// it (their death position within the byte is irrelevant).
			k := len(st.cand)
			for k > 0 && st.cand[k-1].S < maxPref {
				k--
			}
			st.cand = st.cand[:k]
		}
		if d := s - mn; d < 8 {
			// Record lows exist in this byte; push the accepted survivors.
			lm := walkByteLow[b][d] & uint8(candMask>>uint(i))
			for lm != 0 {
				p := bits.TrailingZeros8(lm)
				lm &= lm - 1
				if walkByteSufMax[b][p] > walkBytePrefix[b][p] {
					continue // dies inside the byte: never visible
				}
				sym := charstring.MultiHonest
				if uhMask>>uint(i+p)&1 != 0 {
					sym = charstring.UniqueHonest
				}
				st.cand = append(st.cand, Cand{Slot: st.t + i + p + 1, S: s + int(walkBytePrefix[b][p]), Sym: sym})
			}
		}
		killS = maxInt
		if k := len(st.cand); k > 0 {
			killS = st.cand[k-1].S
		}
		mn = min(mn, s+int(walkByteMin[b]))
		s += int(walkByteSum[b])
	}
	for ; i < n; i++ {
		s += int(aMask>>uint(i)&1)*2 - 1
		if s > killS {
			k := len(st.cand)
			for k > 0 && st.cand[k-1].S < s {
				k--
			}
			st.cand = st.cand[:k]
			killS = maxInt
			if k > 0 {
				killS = st.cand[k-1].S
			}
			continue
		}
		low := uint64(0)
		if s < mn {
			low = 1
		}
		if low&(candMask>>uint(i))&1 != 0 {
			sym := charstring.MultiHonest
			if uhMask>>uint(i)&1 != 0 {
				sym = charstring.UniqueHonest
			}
			st.cand = append(st.cand, Cand{Slot: st.t + i + 1, S: s, Sym: sym})
			killS = s
		}
		mn = min(mn, s)
	}
	st.s, st.min, st.t = s, mn, st.t+n
}

// Len returns the number of symbols consumed.
func (st *Stream) Len() int { return st.t }

// Pending returns the alive candidates in increasing slot order. The slice
// aliases internal scratch: it is valid until the next Feed or Reset and
// must not be retained.
func (st *Stream) Pending() []Cand { return st.cand }

// PendingCount returns the number of alive candidates.
func (st *Stream) PendingCount() int { return len(st.cand) }

// MaxPendingSlot returns the largest alive candidate slot, or 0 when none
// is pending. Every slot in (MaxPendingSlot, Len] is certainly not Catalan,
// whatever the rest of the string does.
func (st *Stream) MaxPendingSlot() int {
	if len(st.cand) == 0 {
		return 0
	}
	return st.cand[len(st.cand)-1].Slot
}
