package catalan

import (
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
)

// randomString draws a random synchronous or semi-synchronous string.
func randomString(rng *rand.Rand, T int, semiSync bool) charstring.String {
	w := make(charstring.String, T)
	for i := range w {
		if semiSync {
			switch rng.Intn(4) {
			case 0:
				w[i] = charstring.Empty
			case 1:
				w[i] = charstring.Adversarial
			case 2:
				w[i] = charstring.UniqueHonest
			default:
				w[i] = charstring.MultiHonest
			}
		} else {
			switch rng.Intn(3) {
			case 0:
				w[i] = charstring.Adversarial
			case 1:
				w[i] = charstring.UniqueHonest
			default:
				w[i] = charstring.MultiHonest
			}
		}
	}
	return w
}

// TestStreamMatchesAnalyze: the online scanner's surviving candidates are
// exactly Analyze's Catalan slots, on randomized synchronous and
// semi-synchronous strings of varied length, with one shared Stream reused
// across all strings (exercising Reset).
func TestStreamMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var st Stream
	for trial := 0; trial < 400; trial++ {
		T := 1 + rng.Intn(120)
		w := randomString(rng, T, trial%2 == 1)
		st.Reset()
		for _, sym := range w {
			st.Feed(sym)
		}
		want := Analyze(w).Slots()
		got := st.Pending()
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v): stream found %d Catalan slots, Analyze %d\n got %v\nwant %v",
				trial, w, len(got), len(want), got, want)
		}
		for i, c := range got {
			if c.Slot != want[i] {
				t.Fatalf("trial %d (%v): slot mismatch at %d: stream %d vs Analyze %d", trial, w, i, c.Slot, want[i])
			}
			if c.Sym != w[c.Slot-1] {
				t.Fatalf("trial %d: candidate symbol %v does not match string symbol %v", trial, c.Sym, w[c.Slot-1])
			}
		}
	}
}

// TestStreamLeftCatalanOnline: immediately after feeding slot t, the slot
// is pending iff it is left-Catalan — the online part of the
// classification is decided with zero lookahead.
func TestStreamLeftCatalanOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var st Stream
	for trial := 0; trial < 100; trial++ {
		T := 1 + rng.Intn(80)
		w := randomString(rng, T, trial%2 == 1)
		tr := w.Walks()
		st.Reset()
		pmin := 0
		for i, sym := range w {
			pushed := st.Feed(sym)
			wantLeft := w[i].Honest() && tr[i+1] < pmin
			if pushed != wantLeft {
				t.Fatalf("trial %d (%v): slot %d pushed=%v, left-Catalan=%v", trial, w, i+1, pushed, wantLeft)
			}
			if pushed && st.MaxPendingSlot() != i+1 {
				t.Fatalf("trial %d: MaxPendingSlot %d after pushing slot %d", trial, st.MaxPendingSlot(), i+1)
			}
			pmin = min(pmin, tr[i+1])
		}
	}
}

// TestStreamFilter: a filtered stream tracks exactly the unfiltered
// pending set intersected with the filter predicate.
func TestStreamFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lo, hi := 10, 40
	filtered := Stream{Filter: func(slot int, sym charstring.Symbol) bool {
		return sym == charstring.UniqueHonest && slot >= lo && slot <= hi
	}}
	var full Stream
	for trial := 0; trial < 200; trial++ {
		w := randomString(rng, 60, false)
		filtered.Reset()
		full.Reset()
		for _, sym := range w {
			filtered.Feed(sym)
			full.Feed(sym)
		}
		var want []Cand
		for _, c := range full.Pending() {
			if c.Sym == charstring.UniqueHonest && c.Slot >= lo && c.Slot <= hi {
				want = append(want, c)
			}
		}
		got := filtered.Pending()
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v): filtered %v, want %v", trial, w, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: filtered candidate %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestStreamWalkAccessors: Len and Walk track the fed prefix.
func TestStreamWalkAccessors(t *testing.T) {
	w := charstring.MustParse("hAAhhH")
	var st Stream
	tr := w.Walks()
	for i, sym := range w {
		st.Feed(sym)
		if st.Len() != i+1 || st.s != tr[i+1] {
			t.Fatalf("after %d symbols: Len=%d Walk=%d, want %d %d", i+1, st.Len(), st.s, i+1, tr[i+1])
		}
	}
	// Slot 1 (h, record low) was killed by the A-run; slot 6 is the only
	// record low that survives to the end.
	if st.MaxPendingSlot() != 6 || st.PendingCount() != 1 {
		t.Fatalf("pending %v, want exactly slot 6", st.Pending())
	}
}

// BenchmarkCatalanStream: the online scanner against Analyze on the same
// string — the per-sample verdict cost inside the Monte-Carlo loop.
func BenchmarkCatalanStream(b *testing.B) {
	w := charstring.MustParams(0.3, 0.3).Sample(rand.New(rand.NewSource(5)), 400)
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		var st Stream
		for i := 0; i < b.N; i++ {
			st.Reset()
			for _, sym := range w {
				st.Feed(sym)
			}
			if st.PendingCount() == 0 {
				b.Fatal("expected Catalan slots")
			}
		}
	})
	b.Run("analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(Analyze(w).Slots()) == 0 {
				b.Fatal("expected Catalan slots")
			}
		}
	})
}
