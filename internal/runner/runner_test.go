package runner

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
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

// TestDeterministicAcrossWorkers: the same (N, Seed, BatchSize) gives a
// bit-identical Estimate at 1, 4 and 8 workers, under different
// GOMAXPROCS settings, for a block-native verdict with a partial tail
// block and for a scalar scanner lifted to blocks.
func TestDeterministicAcrossWorkers(t *testing.T) {
	p := charstring.MustParams(0.3, 0.2)
	for _, c := range []struct {
		name string
		run  func(workers int) (Estimate, error)
	}{
		{"advBlock", func(workers int) (Estimate, error) {
			const T = 100 // one full block and a 36-symbol tail
			return RunStreamBlocks(Config{N: 10_000, Seed: 42, Workers: workers}, T, thresholdBlocks(p), newAdv(T))
		}},
		{"countingStream", func(workers int) (Estimate, error) {
			const T = 50
			return RunStreamBlocks(Config{N: 10_000, Seed: 42, Workers: workers}, T, thresholdBlocks(p), counting(T, false))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref, err := c.run(1)
			if err != nil {
				t.Fatal(err)
			}
			if ref.N != 10_000 || ref.Hits == 0 || ref.Hits == ref.N {
				t.Fatalf("degenerate reference estimate %v", ref)
			}
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 4, 8} {
					got, err := c.run(workers)
					if err != nil {
						t.Fatal(err)
					}
					if got != ref {
						t.Errorf("GOMAXPROCS=%d workers=%d: %v != reference %v", procs, workers, got, ref)
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		})
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

// TestRunEdgeCases: N ≤ 0, T ≤ 0 and nil hooks on every driver. The
// empty job returns the empty estimate; every invalid input is an error.
func TestRunEdgeCases(t *testing.T) {
	p := charstring.MustParams(0.3, 0.2)
	newV := counting(10, false)
	newW := weighted(func() WeightedStreamVerdict { return &countWeighted{T: 10, need: 4} })
	newS := func() WeightedState { return &walkState{T: 3} }
	type edgeCase struct {
		name string
		run  func() (n int, err error)
		ok   bool // the empty job: no error and N = 0
	}
	blocks := func(cfg Config, T int, fill BlockSampler, newV func() blockOf) func() (int, error) {
		return func() (int, error) { e, err := RunStreamBlocks(cfg, T, fill, newV); return e.N, err }
	}
	wblocks := func(cfg Config, T int, fill BlockSampler, newV func() weightedBlockOf) func() (int, error) {
		return func() (int, error) { e, err := RunStreamWeightedBlocks(cfg, T, fill, newV); return e.N, err }
	}
	states := func(cfg Config, newS func() WeightedState) func() (int, error) {
		return func() (int, error) { e, err := RunWeightedStates(cfg, newS); return e.N, err }
	}
	for _, driver := range []struct {
		name  string
		cases []edgeCase
	}{
		{"RunStreamBlocks", []edgeCase{
			{"N=0", blocks(Config{N: 0, Seed: 1}, 10, thresholdBlocks(p), newV), true},
			{"nil_sampler", blocks(Config{N: 10}, 10, nil, newV), false},
			{"nil_verdict", blocks(Config{N: 10}, 10, thresholdBlocks(p), nil), false},
			{"T=0", blocks(Config{N: 10}, 0, thresholdBlocks(p), newV), false},
		}},
		{"RunStreamWeightedBlocks", []edgeCase{
			{"N=0", wblocks(Config{N: 0, Seed: 1}, 10, thresholdBlocks(p), newW), true},
			{"nil_sampler", wblocks(Config{N: 10}, 10, nil, newW), false},
			{"nil_verdict", wblocks(Config{N: 10}, 10, thresholdBlocks(p), nil), false},
			{"T=0", wblocks(Config{N: 10}, 0, thresholdBlocks(p), newW), false},
		}},
		{"RunWeightedStates", []edgeCase{
			{"N=0", states(Config{N: 0}, newS), true},
			{"nil_state", states(Config{N: 10}, nil), false},
		}},
	} {
		t.Run(driver.name, func(t *testing.T) {
			for _, c := range driver.cases {
				t.Run(c.name, func(t *testing.T) {
					n, err := c.run()
					if c.ok && (err != nil || n != 0) {
						t.Fatalf("empty job: N=%d, err %v", n, err)
					}
					if !c.ok && err == nil {
						t.Fatal("invalid input accepted")
					}
				})
			}
		})
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
