package runner

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/stats"
)

// advBlock is a block-native verdict: the event is "more than a third of
// the slots are adversarial", counted straight off the packed A mask (no
// per-symbol loop), deciding at the block where the count crosses — so
// its Feed (the scalar scanner) and FeedBlock are separate code paths.
type advBlock struct{ T, adv int }

func (v *advBlock) Reset() { v.adv = 0 }
func (v *advBlock) Feed(sym charstring.Symbol) bool {
	if sym == charstring.Adversarial {
		v.adv++
	}
	return 3*v.adv > v.T
}
func (v *advBlock) FeedBlock(blk *Block, n int) int {
	v.adv += bits.OnesCount64(blk.AMask & BlockMask(n))
	if 3*v.adv > v.T {
		return n
	}
	return 0
}
func (v *advBlock) Finish() (bool, error) { return 3*v.adv > v.T, nil }

func newAdv(T int) func() *advBlock { return func() *advBlock { return &advBlock{T: T} } }

// TestDeterministicAcrossWorkers: a block-native verdict with a partial
// tail block gives a bit-identical Estimate at 1, 4 and 8 workers, under
// different GOMAXPROCS settings.
func TestDeterministicAcrossWorkers(t *testing.T) {
	p := charstring.MustParams(0.3, 0.2)
	const T = 100 // one full block and a 36-symbol tail
	ref, err := RunStreamBlocks(Config{N: 10_000, Seed: 42, Workers: 1}, T, thresholdBlocks(p), newAdv(T))
	if err != nil {
		t.Fatal(err)
	}
	if ref.N != 10_000 || ref.Hits == 0 || ref.Hits == ref.N {
		t.Fatalf("degenerate reference estimate %v", ref)
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4, 8} {
			got, err := RunStreamBlocks(Config{N: 10_000, Seed: 42, Workers: workers}, T, thresholdBlocks(p), newAdv(T))
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Errorf("GOMAXPROCS=%d workers=%d: %v != reference %v", procs, workers, got, ref)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestMatchesManualBatchLoop pins the weighted driver's fold: per-batch
// partial sums over each sample's own SampleSeed stream, decoded draw by
// draw and judged by the scalar scanner, reduced in batch order, equal
// the driver's WeightedEstimate bit for bit.
func TestMatchesManualBatchLoop(t *testing.T) {
	p := charstring.MustParams(0.4, 0.1)
	const n, bs, T, seed = 2_500, 128, 40, int64(7)
	th := p.Thresholds()
	v := &countWeighted{T: T, need: 14, c: 0.07}
	var sumW, sumW2 float64
	hits := 0
	for b := 0; b*bs < n; b++ {
		var pw, pw2 float64
		for i := b * bs; i < min((b+1)*bs, n); i++ {
			var rng SM64
			rng.Reseed(SampleSeed(seed, b, i-b*bs))
			v.Begin(&rng)
			for j := 0; j < T; j++ {
				if v.Feed(th.Symbol(rng.Uint64())) {
					break
				}
			}
			hit, w, _ := v.Finish()
			if hit {
				hits++
				pw += w
				pw2 += w * w
			}
		}
		sumW += pw
		sumW2 += pw2
	}
	want := NewWeightedEstimate(n, hits, sumW, sumW2)
	got, err := RunStreamWeightedBlocks(Config{N: n, Seed: seed, Workers: 6, BatchSize: bs}, T, thresholdBlocks(p),
		weighted(func() WeightedStreamVerdict { return &countWeighted{T: T, need: 14, c: 0.07} }))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("RunStreamWeightedBlocks %+v != manual batch loop %+v", got, want)
	}
}

// TestSeedAndBatchSizeArePartOfScheme: different seeds (and different batch
// sizes) select different sample streams, while worker count never does.
func TestSeedAndBatchSizeArePartOfScheme(t *testing.T) {
	p := charstring.MustParams(0.2, 0.3)
	const T = 30
	run := func(cfg Config) Estimate {
		t.Helper()
		e, err := RunStreamBlocks(cfg, T, thresholdBlocks(p), newAdv(T))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := run(Config{N: 8_000, Seed: 1, Workers: 3})
	b := run(Config{N: 8_000, Seed: 2, Workers: 3})
	if a.Hits == b.Hits {
		t.Logf("note: seeds 1 and 2 coincidentally agree on hits (%d); tolerated", a.Hits)
	}
	c := run(Config{N: 8_000, Seed: 1, Workers: 5, BatchSize: 64})
	d := run(Config{N: 8_000, Seed: 1, Workers: 1, BatchSize: 64})
	if c != d {
		t.Fatalf("worker count changed the estimate at fixed batch size: %v vs %v", c, d)
	}
}

// failWeighted fails on its nth Finish across all instances.
type failWeighted struct {
	calls *atomic.Int64
	at    int64
	err   error
}

func (v *failWeighted) Begin(*SM64)                 {}
func (v *failWeighted) Feed(charstring.Symbol) bool { return true }
func (v *failWeighted) Finish() (bool, float64, error) {
	if v.calls.Add(1) == v.at {
		return false, 0, v.err
	}
	return false, 1, nil
}

// TestErrorPropagation: the first weighted verdict error cancels the job
// and is surfaced; no estimate is fabricated.
func TestErrorPropagation(t *testing.T) {
	p := charstring.MustParams(0.3, 0.2)
	sentinel := errors.New("boom")
	var calls atomic.Int64
	_, err := RunStreamWeightedBlocks(Config{N: 100_000, Seed: 9, Workers: 4}, 10, thresholdBlocks(p),
		weighted(func() WeightedStreamVerdict { return &failWeighted{calls: &calls, at: 300, err: sentinel} }))
	if !errors.Is(err, sentinel) {
		t.Fatalf("expected sentinel error, got %v", err)
	}
	if n := calls.Load(); n >= 100_000 {
		t.Errorf("error did not cancel remaining work: %d verdicts ran", n)
	}
}

// TestProgressStreaming: both pools report monotonically increasing
// completed-sample counts ending at N, one event per batch.
func TestProgressStreaming(t *testing.T) {
	p := charstring.MustParams(0.3, 0.2)
	for _, weightedPool := range []bool{false, true} {
		var mu sync.Mutex
		var seen []int
		cfg := Config{N: 3_000, Seed: 3, Workers: 4, BatchSize: 500, Progress: func(done, total int) {
			mu.Lock()
			seen = append(seen, done)
			mu.Unlock()
			if total != 3_000 {
				t.Errorf("total = %d", total)
			}
		}}
		var err error
		if weightedPool {
			_, err = RunStreamWeightedBlocks(cfg, 20, thresholdBlocks(p),
				weighted(func() WeightedStreamVerdict { return &countWeighted{T: 20, need: 7} }))
		} else {
			_, err = RunStreamBlocks(cfg, 20, thresholdBlocks(p), newAdv(20))
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 6 {
			t.Fatalf("weighted=%v: expected 6 progress events, got %v", weightedPool, seen)
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] <= seen[i-1] {
				t.Fatalf("weighted=%v: progress not increasing: %v", weightedPool, seen)
			}
		}
		if seen[len(seen)-1] != 3_000 {
			t.Fatalf("weighted=%v: progress did not reach N: %v", weightedPool, seen)
		}
	}
}

// TestEstimateWilson: Estimate carries exactly the stats.Wilson interval.
func TestEstimateWilson(t *testing.T) {
	e := NewEstimate(49, 4000)
	lo, hi := stats.Wilson(49, 4000)
	if e.Lo != lo || e.Hi != hi || e.P != 49.0/4000 {
		t.Fatalf("estimate fields wrong: %+v", e)
	}
	if s := e.String(); s == "" {
		t.Fatal("empty String()")
	}
	zero := NewEstimate(0, 0)
	if zero.P != 0 || zero.Lo != 0 || zero.Hi != 1 {
		t.Fatalf("empty-sample estimate wrong: %+v", zero)
	}
}

// TestRunEdgeCases: N ≤ 0, T ≤ 0 and nil hooks on the weighted drivers.
func TestRunEdgeCases(t *testing.T) {
	p := charstring.MustParams(0.3, 0.2)
	newV := weighted(func() WeightedStreamVerdict { return &countWeighted{T: 10, need: 4} })
	if e, err := RunStreamWeightedBlocks(Config{N: 0, Seed: 1}, 10, thresholdBlocks(p), newV); err != nil || e.N != 0 {
		t.Fatalf("N=0: %v, %v", e, err)
	}
	if _, err := RunStreamWeightedBlocks(Config{N: 10}, 10, nil, newV); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if _, err := RunStreamWeightedBlocks[weightedBlockOf](Config{N: 10}, 10, thresholdBlocks(p), nil); err == nil {
		t.Fatal("nil verdict constructor accepted")
	}
	if _, err := RunStreamWeightedBlocks(Config{N: 10}, 0, thresholdBlocks(p), newV); err == nil {
		t.Fatal("T=0 accepted")
	}
	if e, err := RunWeightedStates(Config{N: 0}, func() WeightedState { return &walkState{T: 3} }); err != nil || e.N != 0 {
		t.Fatalf("states N=0: %v, %v", e, err)
	}
	if _, err := RunWeightedStates(Config{N: 10}, nil); err == nil {
		t.Fatal("nil state constructor accepted")
	}
}

// TestForEachCoversAllIndices: each index runs exactly once, at any pool size.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 97
		counts := make([]atomic.Int64, n)
		if err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	if err := ForEach(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachError: the first error is returned and cancels remaining work.
func TestForEachError(t *testing.T) {
	var ran atomic.Int64
	err := ForEach(2, 10_000, func(i int) error {
		ran.Add(1)
		if i == 5 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n >= 10_000 {
		t.Errorf("error did not stop the loop: %d iterations", n)
	}
}
