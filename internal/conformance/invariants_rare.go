package conformance

import (
	"math/rand"
	"testing"

	"multihonest/internal/mc"
	"multihonest/internal/rare"
	"multihonest/internal/runner"
	"multihonest/internal/settlement"
)

func rareInvariants() []Invariant {
	return []Invariant{
		{
			Name: "rare-unit-tilt-equals-plain-mc",
			Statement: "The θ = 0 tilted estimator returns the same point " +
				"estimate as plain streaming Monte-Carlo bit for bit, and every " +
				"one of its samples has weight exactly 1 and the hit the slice " +
				"verdict gives on the symbols the plain sampler decodes from " +
				"that sample's own stream.",
			Anchor: "rare.TiltSync θ = 0 short-circuit + rare.TiltedVerdict (internal/rare/tilt.go)",
			Check:  checkUnitTiltEqualsPlainMC,
		},
		{
			Name: "rare-engines-agree-with-dp-bracket",
			Statement: "At a settlement point both rare-event engines (tilting " +
				"and splitting) produce intervals consistent with the lattice " +
				"DP's rigorous [lower, lower+dropped] bracket, with non-zero ESS.",
			Anchor: "rare.SettlementTilted / rare.SettlementSplit vs settlement.Computer.ViolationBracket",
			Check:  checkRareEnginesAgreeWithDP,
		},
	}
}

func checkUnitTiltEqualsPlainMC(t *testing.T, r *rand.Rand) {
	p := randParams(t, r)
	m, k := 3+r.Intn(12), 10+r.Intn(30)
	T := m + k
	cfg := runner.Config{N: 4000, Seed: r.Int63(), BatchSize: 128}

	ts := rare.TiltSync(p, 0)
	weighted, out := serialWeightedBlocks(t, cfg, T, ts.BlockSampler(m), func() runner.WeightedBlockVerdict {
		return &rare.TiltedVerdict{Inner: mc.NewSettlementStreamVerdict(m, T), Skip: m}
	})
	checkPerSample(t, "unit-tilt", cfg, weighted.Hits, out,
		sliceRef(t, T, mc.StreamBernoulliSampler(p), mc.SettlementViolationVerdict(m)))
	plain, err := runner.RunStreamBlocks(cfg, T, mc.BlockBernoulliMaskSampler(p),
		func() runner.BlockVerdict { return mc.NewSettlementStreamVerdict(m, T).(runner.BlockVerdict) })
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Hits != plain.Hits {
		t.Fatalf("unit tilt hits %d != plain hits %d", weighted.Hits, plain.Hits)
	}
	if weighted.P != plain.P {
		t.Fatalf("unit tilt P %v != plain P %v (must be bitwise equal)", weighted.P, plain.P)
	}
	if weighted.SumW != float64(weighted.Hits) {
		t.Fatalf("unit tilt SumW %v != Hits %d: some weight was not exactly 1",
			weighted.SumW, weighted.Hits)
	}
}

func checkRareEnginesAgreeWithDP(t *testing.T, r *rand.Rand) {
	if testing.Short() {
		t.Skip("rare-engine certification skipped in -short mode")
	}
	p := randParams(t, r)
	k := 30 + r.Intn(20)
	seed := r.Int63()

	lo, hi, err := settlement.New(p).ViolationBracket(k, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	// 3σ agreement bands: the checks must be deterministic-reproducible
	// (the seed is fixed per run) yet robust to the moderate budgets here.
	intersects := func(name string, res rare.Result) {
		t.Helper()
		bandLo, bandHi := res.P-3*res.SE, res.P+3*res.SE
		if bandLo > hi || bandHi < lo {
			t.Fatalf("%s (ǫ=%v ph=%v k=%d): 3σ interval [%.3e, %.3e] misses DP bracket [%.3e, %.3e]",
				name, p.Epsilon, p.Ph, k, bandLo, bandHi, lo, hi)
		}
		if res.ESS <= 0 {
			t.Fatalf("%s: zero effective sample size", name)
		}
	}

	tilt, err := rare.SettlementTilted(p, k, rare.Options{
		N: 20000, MaxRounds: 4, RelErr: 0.10, MinESS: 300, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	intersects("tilt", tilt)

	split, err := rare.SettlementSplit(p, k, rare.SplitConfig{
		Particles: 256, Replicates: 64, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	intersects("split", split)
}
