package runner

import (
	"math"
	"strings"
	"testing"

	"multihonest/internal/charstring"
)

// countWeighted is a toy weighted verdict: hit iff the sample's first T
// symbols contain at least `need` adversarial slots, weighted by
// exp(c·#A). It exercises Begin-randomness, early exit and weighting.
type countWeighted struct {
	T, need int
	c       float64
	t, a    int
}

func (v *countWeighted) Begin(*SM64) { v.t, v.a = 0, 0 }

func (v *countWeighted) Feed(sym charstring.Symbol) bool {
	v.t++
	if sym == charstring.Adversarial {
		v.a++
	}
	return v.a >= v.need // decided: no continuation can undo a hit
}

func (v *countWeighted) Finish() (bool, float64, error) {
	return v.a >= v.need, math.Exp(v.c * float64(v.a)), nil
}

// weightedBlockOf lifts a scalar WeightedStreamVerdict to a
// WeightedBlockVerdict deciding at the exact scalar index.
type weightedBlockOf struct{ WeightedStreamVerdict }

func (v weightedBlockOf) FeedBlock(blk *Block, n int) int {
	for i := 0; i < n; i++ {
		if v.Feed(blk.Syms[i]) {
			return i + 1
		}
	}
	return 0
}

// weighted wraps a verdict constructor for the block driver.
func weighted(mk func() WeightedStreamVerdict) func() weightedBlockOf {
	return func() weightedBlockOf { return weightedBlockOf{mk()} }
}

// TestRunStreamWeightedDeterministicAcrossWorkers: weighted float sums
// fold in batch order, so the estimate is bit-identical at every worker
// count and batch scheduling.
func TestRunStreamWeightedDeterministicAcrossWorkers(t *testing.T) {
	p := charstring.MustParams(0.3, 0.3)
	newV := weighted(func() WeightedStreamVerdict { return &countWeighted{T: 50, need: 18, c: 0.05} })
	var ref WeightedEstimate
	for i, workers := range []int{1, 2, 4, 8} {
		e, err := RunStreamWeightedBlocks(Config{N: 20000, Seed: 99, Workers: workers}, 50, thresholdBlocks(p), newV)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = e
			continue
		}
		if e != ref {
			t.Fatalf("workers=%d: %+v != workers=1 %+v", workers, e, ref)
		}
	}
	if ref.Hits == 0 || ref.Hits == ref.N {
		t.Fatalf("degenerate coverage: %+v", ref)
	}
}

// walkState is a toy self-sampling state for RunWeightedStates: a biased
// walk drawn from its own thresholds, hit iff it ends non-negative.
type walkState struct {
	th   charstring.Thresholds
	T    int
	t, s int
}

func (w *walkState) Begin(*SM64) { w.t, w.s = 0, 0 }
func (w *walkState) Step(rng *SM64) bool {
	w.s += w.th.Symbol(rng.Uint64()).Walk()
	w.t++
	return w.t >= w.T
}
func (w *walkState) Finish() (bool, float64, error) {
	if w.s >= 0 {
		return true, 1.5, nil
	}
	return false, 0.5, nil
}

// TestRunWeightedStatesDeterministic: the self-sampling entry point obeys
// the same worker-invariance contract.
func TestRunWeightedStatesDeterministic(t *testing.T) {
	p := charstring.MustParams(0.2, 0.3)
	newState := func() WeightedState { return &walkState{th: p.Thresholds(), T: 30} }
	var ref WeightedEstimate
	for i, workers := range []int{1, 3, 8} {
		e, err := RunWeightedStates(Config{N: 15000, Seed: 12, Workers: workers}, newState)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = e
			if ref.Hits == 0 {
				t.Fatal("degenerate: no hits")
			}
			continue
		}
		if e != ref {
			t.Fatalf("workers=%d: %+v != %+v", workers, e, ref)
		}
	}
}

// badWeight always returns an invalid weight.
type badWeight struct{ w float64 }

func (b *badWeight) Begin(*SM64)                    {}
func (b *badWeight) Feed(charstring.Symbol) bool    { return true }
func (b *badWeight) Finish() (bool, float64, error) { return true, b.w, nil }

// TestWeightedInvalidWeightRejected: negative, NaN and infinite weights
// surface as errors naming the offending sample.
func TestWeightedInvalidWeightRejected(t *testing.T) {
	p := charstring.MustParams(0.3, 0.3)
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		_, err := RunStreamWeightedBlocks(Config{N: 100, Seed: 1}, 5, thresholdBlocks(p),
			weighted(func() WeightedStreamVerdict { return &badWeight{w: w} }))
		if err == nil || !strings.Contains(err.Error(), "invalid importance weight") {
			t.Fatalf("weight %v: expected invalid-weight error, got %v", w, err)
		}
	}
}

// TestWeightedEstimateMergeAndStats: merging rounds is sum-exact and the
// derived statistics match their definitions.
func TestWeightedEstimateMergeAndStats(t *testing.T) {
	a := NewWeightedEstimate(100, 3, 6, 18)
	b := NewWeightedEstimate(50, 1, 2, 4)
	m := a.Merge(b)
	if m.N != 150 || m.Hits != 4 || m.SumW != 8 || m.SumW2 != 22 {
		t.Fatalf("merge sums wrong: %+v", m)
	}
	if want := 8.0 / 150; m.P != want {
		t.Fatalf("P %v want %v", m.P, want)
	}
	if want := 64.0 / 22; math.Abs(m.ESS-want) > 1e-12 {
		t.Fatalf("ESS %v want %v", m.ESS, want)
	}
	if m.Lo > m.P || m.Hi < m.P || m.Lo < 0 {
		t.Fatalf("CI malformed: %+v", m)
	}
	if e := NewWeightedEstimate(0, 0, 0, 0); e.P != 0 || e.RelErr() != math.Inf(1) {
		t.Fatalf("empty estimate malformed: %+v", e)
	}
}
