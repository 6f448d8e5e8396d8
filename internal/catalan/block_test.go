package catalan

import (
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
)

// feedBlockMasks packs a synchronous string segment into the three masks
// FeedBlockCand consumes: the adversarial walk mask, the candidate mask
// (accept, applied per slot), and the uniquely-honest attribution mask.
func feedBlockMasks(w charstring.String, off, n, base int, accept func(slot int, sym charstring.Symbol) bool) (aMask, candMask, uhMask uint64) {
	for i := 0; i < n; i++ {
		sym := w[off+i]
		if sym == charstring.Adversarial {
			aMask |= 1 << uint(i)
		}
		if sym == charstring.UniqueHonest {
			uhMask |= 1 << uint(i)
		}
		if accept(base+off+i+1, sym) {
			candMask |= 1 << uint(i)
		}
	}
	return aMask, candMask, uhMask
}

// TestFeedBlockCandEquivalence: FeedBlockCand is bit-equivalent to the
// scalar Feed loop with the matching Filter — same walk, same minimum,
// same pending stack (slots, S values and symbols) at every block
// boundary — across random synchronous strings, drifts (downward, neutral
// and upward, the last exercising kills heavily), random windows and
// partial tail blocks.
func TestFeedBlockCandEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 600; trial++ {
		T := 1 + rng.Intn(300)
		// Vary the adversarial rate so kills, pushes and folds all occur.
		pa := [...]float64{0.2, 0.5, 0.8}[trial%3]
		w := make(charstring.String, T)
		for i := range w {
			switch {
			case rng.Float64() < pa:
				w[i] = charstring.Adversarial
			case rng.Intn(2) == 0:
				w[i] = charstring.UniqueHonest
			default:
				w[i] = charstring.MultiHonest
			}
		}
		lo := 1 + rng.Intn(T)
		hi := lo + rng.Intn(T-lo+1)
		uhOnly := trial%2 == 0
		accept := func(slot int, sym charstring.Symbol) bool {
			if uhOnly && sym != charstring.UniqueHonest {
				return false
			}
			return slot >= lo && slot <= hi
		}

		scalar := Stream{Filter: accept}
		var block Stream
		for off := 0; off < T; off += 64 {
			n := min(64, T-off)
			aMask, candMask, uhMask := feedBlockMasks(w, off, n, 0, accept)
			block.FeedBlockCand(aMask, candMask, uhMask, n)
			for i := 0; i < n; i++ {
				scalar.Feed(w[off+i])
			}
			if block.Len() != scalar.Len() || block.s != scalar.s || block.min != scalar.min {
				t.Fatalf("trial %d off %d: state (t,s,min) block (%d,%d,%d) vs scalar (%d,%d,%d)",
					trial, off, block.Len(), block.s, block.min, scalar.Len(), scalar.s, scalar.min)
			}
			bp, sp := block.Pending(), scalar.Pending()
			if len(bp) != len(sp) {
				t.Fatalf("trial %d off %d (%v): pending %v vs scalar %v", trial, off, w, bp, sp)
			}
			for i := range bp {
				if bp[i] != sp[i] {
					t.Fatalf("trial %d off %d: candidate %d = %+v vs scalar %+v", trial, off, i, bp[i], sp[i])
				}
			}
		}
	}
}

// TestFeedBlockCandTables: the per-byte walk tables agree with a direct
// bit walk for every byte value and entry height.
func TestFeedBlockCandTables(t *testing.T) {
	for b := 0; b < 256; b++ {
		s, mn, mx := 0, 127, -128
		var prefix [8]int
		for j := 0; j < 8; j++ {
			s += int(b>>uint(j)&1)*2 - 1
			prefix[j] = s
			mn, mx = min(mn, s), max(mx, s)
		}
		if int(walkByteSum[b]) != s || int(walkByteMin[b]) != mn || int(walkByteMax[b]) != mx {
			t.Fatalf("byte %08b: sum/min/max tables (%d,%d,%d), want (%d,%d,%d)",
				b, walkByteSum[b], walkByteMin[b], walkByteMax[b], s, mn, mx)
		}
		for p := 0; p < 8; p++ {
			if int(walkBytePrefix[b][p]) != prefix[p] {
				t.Fatalf("byte %08b: prefix[%d] = %d, want %d", b, p, walkBytePrefix[b][p], prefix[p])
			}
			sm := -128
			for q := p + 1; q < 8; q++ {
				sm = max(sm, prefix[q])
			}
			if int(walkByteSufMax[b][p]) != sm {
				t.Fatalf("byte %08b: sufMax[%d] = %d, want %d", b, p, walkByteSufMax[b][p], sm)
			}
		}
		for d := 0; d < 8; d++ {
			var want uint8
			runMin := 0 - d // the entry minimum relative to the entry walk
			for p := 0; p < 8; p++ {
				if prefix[p] < runMin {
					want |= 1 << uint(p)
					runMin = prefix[p]
				}
			}
			if walkByteLow[b][d] != want {
				t.Fatalf("byte %08b d=%d: lowMask %08b, want %08b", b, d, walkByteLow[b][d], want)
			}
		}
	}
}
