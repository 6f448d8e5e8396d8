package rare

import (
	"math"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/mc"
	"multihonest/internal/settlement"
)

// TestSplitMatchesDP: the fixed-effort cascade reproduces the exact DP
// value within its replicate interval across depths spanning five orders
// of magnitude.
func TestSplitMatchesDP(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35)
	comp := settlement.New(p)
	for _, k := range []int{40, 120, 200} {
		exact, err := comp.ViolationProbability(k)
		if err != nil {
			t.Fatal(err)
		}
		r, err := SettlementSplit(p, k, SplitConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if exact < r.Lo || exact > r.Hi {
			t.Fatalf("k=%d: DP %.4e outside splitting CI [%.4e, %.4e] (%v)", k, exact, r.Lo, r.Hi, r.WeightedEstimate)
		}
	}
}

// TestSplitNoLevelsIsPlainMC: an empty level schedule degrades the
// cascade to plain Monte-Carlo over Particles samples per replicate and
// still matches the DP at an easy horizon.
func TestSplitNoLevelsIsPlainMC(t *testing.T) {
	p := charstring.MustParams(0.5, 0.3)
	const k = 20
	exact, err := settlement.New(p).ViolationProbability(k)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SettlementSplit(p, k, SplitConfig{Seed: 6, Particles: 4096, Replicates: 16, Levels: []float64{}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Levels != 0 {
		t.Fatalf("expected 0 levels, got %d", r.Levels)
	}
	if exact < r.Lo || exact > r.Hi {
		t.Fatalf("DP %.4e outside plain-MC cascade CI [%.4e, %.4e]", exact, r.Lo, r.Hi)
	}
}

// TestDeltaSplitMatchesMC: the candidate-free-progress cascade agrees
// with the plain streaming E4 estimator.
func TestDeltaSplitMatchesMC(t *testing.T) {
	sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const delta, s, k, tail, n = 2, 8, 35, 100, 80000
	plain, err := mc.DeltaUnsettled(sp, delta, s, k, tail, n, 51, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DeltaUnsettledSplit(sp, delta, s, k, tail, SplitConfig{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	tol := 3*math.Sqrt(plain.P*(1-plain.P)/float64(n)) + 3*1.96*r.SE
	if d := math.Abs(r.P - plain.P); d > tol {
		t.Fatalf("split E4 %v vs plain %v differ by %v > %v", r.P, plain.P, d, tol)
	}
}

// TestSplitWorkerInvariance: replicate fan-out never changes the
// estimate.
func TestSplitWorkerInvariance(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35)
	const k = 100
	var ref Result
	for i, workers := range []int{1, 4, 8} {
		r, err := SettlementSplit(p, k, SplitConfig{Seed: 13, Particles: 512, Replicates: 12, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = r
			continue
		}
		if r.P != ref.P || r.SumW != ref.SumW || r.SumW2 != ref.SumW2 {
			t.Fatalf("workers=%d: split estimate differs: %+v vs %+v", workers, r.WeightedEstimate, ref.WeightedEstimate)
		}
	}
}

// TestSplitLevelValidation: non-ascending schedules are rejected.
func TestSplitLevelValidation(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35)
	_, err := SettlementSplit(p, 50, SplitConfig{Levels: []float64{3, 3}})
	if err == nil {
		t.Fatal("expected error for non-ascending levels")
	}
}

// TestEvenLevels: schedule construction corner cases.
func TestEvenLevels(t *testing.T) {
	if ls := EvenLevels(10, 0); ls != nil {
		t.Fatalf("m=0 should yield nil, got %v", ls)
	}
	ls := EvenLevels(12, 3)
	want := []float64{3, 6, 9}
	if len(ls) != len(want) {
		t.Fatalf("levels %v, want %v", ls, want)
	}
	for i := range ls {
		if math.Abs(ls[i]-want[i]) > 1e-12 {
			t.Fatalf("levels %v, want %v", ls, want)
		}
	}
}
