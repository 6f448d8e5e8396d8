package mc

import (
	"math"
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/runner"
)

// feedAll drives a streaming verdict over a whole string symbol by
// symbol: Reset, Feed until decided or exhausted, Finish.
func feedAll(v runner.StreamVerdict, w charstring.String) (bool, error) {
	v.Reset()
	for _, sym := range w {
		if v.Feed(sym) {
			break
		}
	}
	return v.Finish()
}

// TestStreamVerdictEquivalence pins every streaming verdict to its
// slice-based reference on randomized strings — synchronous for E1/E2/E3/E5,
// semi-synchronous (leader-conditioned) for E4 — with shared scratch
// reused across strings.
func TestStreamVerdictEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1729))
	sp, err := charstring.NewSemiSyncParams(0.5, 0.25, 0.1, 0.15)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("NoUniquelyHonestCatalan", func(t *testing.T) {
		const s, k = 8, 25
		stream := newNoUHCatalanStream(s, k)
		oracle := NoUniquelyHonestCatalanVerdict(s, k)
		for trial := 0; trial < 500; trial++ {
			p := charstring.MustParams(0.05+0.9*rng.Float64(), 0.4*rng.Float64())
			w := p.Sample(rng, s-1+k+rng.Intn(40))
			got, err := feedAll(stream, w)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := oracle(w)
			if got != want {
				t.Fatalf("trial %d (%v): stream %v, oracle %v", trial, w, got, want)
			}
		}
	})

	t.Run("NoConsecutiveCatalan", func(t *testing.T) {
		const s, k = 5, 20
		stream := newNoConsecCatalanStream(s, k)
		oracle := NoConsecutiveCatalanVerdict(s, k)
		for trial := 0; trial < 500; trial++ {
			p := charstring.MustParams(0.05+0.9*rng.Float64(), 0.5*rng.Float64())
			w := p.Sample(rng, s-1+k+rng.Intn(40))
			got, err := feedAll(stream, w)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := oracle(w)
			if got != want {
				t.Fatalf("trial %d (%v): stream %v, oracle %v", trial, w, got, want)
			}
		}
	})

	t.Run("SettlementViolation", func(t *testing.T) {
		for trial := 0; trial < 500; trial++ {
			m := rng.Intn(40)
			k := 1 + rng.Intn(40)
			stream := newSettlementStream(m, m+k)
			oracle := SettlementViolationVerdict(m)
			p := charstring.MustParams(0.05+0.9*rng.Float64(), 0.5*rng.Float64())
			w := p.Sample(rng, m+k)
			got, err := feedAll(stream, w)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := oracle(w)
			if got != want {
				t.Fatalf("trial %d m=%d k=%d (%v): stream %v, oracle %v", trial, m, k, w, got, want)
			}
		}
	})

	t.Run("CPViolationPossible", func(t *testing.T) {
		for trial := 0; trial < 400; trial++ {
			k := 3 + rng.Intn(25)
			consistent := trial%2 == 0
			stream := newCPStream(k, consistent)
			oracle := CPViolationVerdict(k, consistent)
			ph := 0.4 * rng.Float64()
			if consistent {
				ph = 0 // the consistent-ties certificate regime is bivalent
			}
			p := charstring.MustParams(0.05+0.9*rng.Float64(), ph)
			w := p.Sample(rng, 20+rng.Intn(120))
			got, err := feedAll(stream, w)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := oracle(w)
			if got != want {
				t.Fatalf("trial %d k=%d consistent=%v (%v): stream %v, oracle %v", trial, k, consistent, w, got, want)
			}
		}
	})

	t.Run("DeltaUnsettled", func(t *testing.T) {
		for trial := 0; trial < 400; trial++ {
			T := 30 + rng.Intn(80)
			s := 1 + rng.Intn(10)
			k := 1 + rng.Intn(10)
			delta := rng.Intn(4)
			stream, err := newDeltaUnsettledStream(s, k, delta, T)
			if err != nil {
				t.Fatal(err)
			}
			oracle := DeltaUnsettledVerdict(s, k, delta)
			w := sp.Sample(rng, T)
			if w[s-1] == charstring.Empty {
				w[s-1] = charstring.UniqueHonest
			}
			got, err := feedAll(stream, w)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := oracle(w)
			if wantErr != nil {
				t.Fatal(wantErr)
			}
			if got != want {
				t.Fatalf("trial %d s=%d k=%d Δ=%d (%v): stream %v, oracle %v", trial, s, k, delta, w, got, want)
			}
		}
	})
}

// sliceEstimate runs an experiment on the slice-based reference path:
// n whole strings drawn serially by draw from one math/rand stream, each
// judged by the slice verdict.
func sliceEstimate(t *testing.T, n int, seed int64, draw func(*rand.Rand) charstring.String, verdict runner.Verdict) Estimate {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	for i := 0; i < n; i++ {
		ok, err := verdict(draw(rng))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hits++
		}
	}
	return runner.NewEstimate(hits, n)
}

// batchEstimate is sliceEstimate over T-slot (ǫ, ph)-Bernoulli strings.
func batchEstimate(t *testing.T, p charstring.Params, T, n int, seed int64, verdict runner.Verdict) Estimate {
	return sliceEstimate(t, n, seed, func(rng *rand.Rand) charstring.String { return p.Sample(rng, T) }, verdict)
}

// TestStreamRNGStatisticalEquivalence pins the raw-uint64 splitmix64
// sampling against rand.Float64 slice sampling: the two draw different
// (equally valid) streams from the same law, so their estimates must agree
// within Monte-Carlo error on every experiment. 3·SE at n = 20000 keeps
// the deterministic check far from flaky while still catching any
// distributional skew in the threshold sampler.
func TestStreamRNGStatisticalEquivalence(t *testing.T) {
	p := charstring.MustParams(0.35, 0.25)
	const n = 20000
	tol := func(a, b Estimate) float64 {
		return 3*math.Sqrt(a.P*(1-a.P)/float64(a.N)+b.P*(1-b.P)/float64(b.N)) + 1e-9
	}

	{
		const s, k, tail = 25, 30, 120
		T := s - 1 + k + tail
		neu := NoUniquelyHonestCatalan(p, s, k, tail, n, 301, 0)
		old := batchEstimate(t, p, T, n, 301, NoUniquelyHonestCatalanVerdict(s, k))
		if d := math.Abs(neu.P - old.P); d > tol(neu, old) {
			t.Errorf("E1: stream %.5f vs slice %.5f differ by %.5f > %.5f", neu.P, old.P, d, tol(neu, old))
		}
	}
	{
		const s, k, tail = 20, 40, 100
		bp := charstring.MustParams(0.4, 0)
		T := s - 1 + k + tail
		neu := NoConsecutiveCatalan(0.4, s, k, tail, n, 302, 0)
		old := batchEstimate(t, bp, T, n, 302, NoConsecutiveCatalanVerdict(s, k))
		if d := math.Abs(neu.P - old.P); d > tol(neu, old) {
			t.Errorf("E2: stream %.5f vs slice %.5f differ by %.5f > %.5f", neu.P, old.P, d, tol(neu, old))
		}
	}
	{
		const m, k = 120, 30
		neu := SettlementViolation(p, m, k, n, 303, 0)
		old := batchEstimate(t, p, m+k, n, 303, SettlementViolationVerdict(m))
		if d := math.Abs(neu.P - old.P); d > tol(neu, old) {
			t.Errorf("E3: stream %.5f vs slice %.5f differ by %.5f > %.5f", neu.P, old.P, d, tol(neu, old))
		}
	}
	{
		const T, k = 200, 30
		neu := CPViolationPossible(p, T, k, n, 304, false, 0)
		old := batchEstimate(t, p, T, n, 304, CPViolationVerdict(k, false))
		if d := math.Abs(neu.P - old.P); d > tol(neu, old) {
			t.Errorf("E5: stream %.5f vs slice %.5f differ by %.5f > %.5f", neu.P, old.P, d, tol(neu, old))
		}
	}
	{
		sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		const s, k, tail, delta = 8, 40, 100, 2
		f := sp.ActiveRate()
		T := s + int(float64(2*k+tail)/f) + delta
		neu, err := DeltaUnsettled(sp, delta, s, k, tail, n, 305, 0)
		if err != nil {
			t.Fatal(err)
		}
		old := sliceEstimate(t, n, 305, func(rng *rand.Rand) charstring.String {
			w := sp.Sample(rng, T)
			if w[s-1] == charstring.Empty {
				w[s-1] = charstring.UniqueHonest
			}
			return w
		}, DeltaUnsettledVerdict(s, k, delta))
		if d := math.Abs(neu.P - old.P); d > tol(neu, old) {
			t.Errorf("E4: stream %.5f vs slice %.5f differ by %.5f > %.5f", neu.P, old.P, d, tol(neu, old))
		}
	}
}

// TestFusedLoopZeroAllocs is the allocation regression guard of the
// streaming core: one full fused sample–judge iteration (reseed, reset,
// draw + feed every symbol, finish) performs zero heap allocations in
// steady state, for every experiment verdict. Scratch is warmed up first —
// candidate stacks grow to their working size within a few samples and are
// reused forever after.
func TestFusedLoopZeroAllocs(t *testing.T) {
	p := charstring.MustParams(0.3, 0.3)
	sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := newDeltaUnsettledStream(8, 40, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	deltaBlock, err := newDeltaUnsettledStream(8, 40, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		T       int
		sample  runner.SymbolSampler
		verdict runner.StreamVerdict
	}{
		{"E1-NoUHCatalan", 349, StreamBernoulliSampler(p), newNoUHCatalanStream(40, 160)},
		{"E2-NoConsecCatalan", 349, StreamBernoulliSampler(charstring.MustParams(0.5, 0)), newNoConsecCatalanStream(40, 160)},
		{"E3-Settlement", 700, StreamBernoulliSampler(p), newSettlementStream(600, 700)},
		{"E5-CPViolation", 400, StreamBernoulliSampler(p), newCPStream(40, false)},
		{"E4-DeltaUnsettled", 400, StreamConditionedSemiSyncSampler(sp, 8), delta},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rng runner.SM64
			sampleOnce := func(seed uint64) {
				rng.Reseed(seed)
				tc.verdict.Reset()
				for slot := 1; slot <= tc.T; slot++ {
					if tc.verdict.Feed(tc.sample(&rng, slot)) {
						break
					}
				}
				if _, err := tc.verdict.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ { // warm the scratch
				sampleOnce(runner.SampleSeed(1, 0, i))
			}
			var i uint64
			allocs := testing.AllocsPerRun(200, func() {
				sampleOnce(runner.SampleSeed(2, 0, int(i)))
				i++
			})
			if allocs != 0 {
				t.Fatalf("fused loop allocates %.1f allocs per sample in steady state, want 0", allocs)
			}
		})
	}

	// The block loop must hold the same bar: one full block-at-a-time
	// sample (reseed, reset, fill + classify + feed every block, finish)
	// with the per-worker Block reused across samples.
	blockCases := []struct {
		name    string
		T       int
		fill    runner.BlockSampler
		verdict runner.BlockVerdict
	}{
		{"E1-NoUHCatalan", 349, BlockBernoulliMaskSampler(p), newNoUHCatalanStream(40, 160)},
		{"E2-NoConsecCatalan", 349, BlockBernoulliMaskSampler(charstring.MustParams(0.5, 0)), newNoConsecCatalanStream(40, 160)},
		{"E3-Settlement", 700, BlockBernoulliMaskSampler(p), newSettlementStream(600, 700)},
		{"E5-CPViolation", 400, BlockBernoulliSampler(p), newCPStream(40, false)},
		{"E4-DeltaUnsettled", 400, BlockConditionedSemiSyncSampler(sp, 8), deltaBlock},
	}
	for _, tc := range blockCases {
		t.Run(tc.name+"-block", func(t *testing.T) {
			var rng runner.SM64
			blk := new(runner.Block)
			sampleOnce := func(seed uint64) {
				rng.Reseed(seed)
				tc.verdict.Reset()
				for base := 0; base < tc.T; base += runner.BlockSize {
					tc.fill(&rng, base, blk)
					if tc.verdict.FeedBlock(blk, min(runner.BlockSize, tc.T-base)) != 0 {
						break
					}
				}
				if _, err := tc.verdict.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ { // warm the scratch
				sampleOnce(runner.SampleSeed(1, 0, i))
			}
			var i uint64
			allocs := testing.AllocsPerRun(200, func() {
				sampleOnce(runner.SampleSeed(2, 0, int(i)))
				i++
			})
			if allocs != 0 {
				t.Fatalf("block loop allocates %.1f allocs per sample in steady state, want 0", allocs)
			}
		})
	}
}
