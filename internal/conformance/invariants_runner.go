package conformance

import (
	"math"
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/mc"
	"multihonest/internal/rare"
	"multihonest/internal/runner"
)

func runnerInvariants() []Invariant {
	return []Invariant{
		{
			Name: "runner-worker-invariance",
			Statement: "RunStreamBlocks returns bit-identical Estimates at " +
				"every worker count, and every sample's outcome equals the " +
				"slice verdict on the symbols decoded from that sample's own " +
				"SampleSeed stream, because the sampling scheme is defined " +
				"over batches and samples, not workers.",
			Anchor: "runner.SampleSeed / runner.runBatches (internal/runner)",
			Check:  checkRunnerWorkerInvariance,
		},
		{
			Name: "runner-weighted-worker-invariance",
			Statement: "RunStreamWeightedBlocks folds float partial sums in " +
				"batch index order, so the WeightedEstimate — including its " +
				"float sums — is bit-identical at every worker count.",
			Anchor: "runner.runBatches batch-ordered fold (internal/runner/runner.go)",
			Check:  checkRunnerWeightedWorkerInvariance,
		},
		{
			Name: "runner-block-scalar-identity",
			Statement: "For every sample of a block-driver run (RunStreamBlocks " +
				"/ RunStreamWeightedBlocks), the block verdict's outcome equals " +
				"the scalar scanner — and, unweighted, the slice verdict — run " +
				"on the symbols decoded one draw at a time from that sample's " +
				"own SampleSeed stream: the hit for every mc verdict, the " +
				"(hit, weight) pair bit for bit for the tilted verdicts. Block " +
				"classification preserves the per-sample draw sequence and " +
				"over-drawing inside a decided sample is unobservable.",
			Anchor: "runner.RunStreamBlocks / SM64.Fill / charstring ClassifyBlock (internal/runner/block.go)",
			Check:  checkRunnerBlockScalarIdentity,
		},
	}
}

// outcome is one sample's verdict as the block driver reached it.
type outcome struct {
	hit    bool
	weight float64
}

// recordBlock and recordWeighted append each sample's outcome as the
// driver finishes it. Run on one worker, the driver claims batches — and
// the samples within them — in index order, so the recording is in
// sample order.
type recordBlock struct {
	runner.BlockVerdict
	out *[]outcome
}

func (v recordBlock) Finish() (bool, error) {
	hit, err := v.BlockVerdict.Finish()
	*v.out = append(*v.out, outcome{hit, 1})
	return hit, err
}

type recordWeighted struct {
	runner.WeightedBlockVerdict
	out *[]outcome
}

func (v recordWeighted) Finish() (bool, float64, error) {
	hit, w, err := v.WeightedBlockVerdict.Finish()
	*v.out = append(*v.out, outcome{hit, w})
	return hit, w, err
}

// serialBlocks runs an unweighted block job on one worker and returns
// its estimate with every sample's outcome.
func serialBlocks(t *testing.T, cfg runner.Config, T int, fill runner.BlockSampler, mk func() runner.BlockVerdict) (runner.Estimate, []outcome) {
	t.Helper()
	var out []outcome
	cfg.Workers = 1
	est, err := runner.RunStreamBlocks(cfg, T, fill, func() recordBlock { return recordBlock{mk(), &out} })
	if err != nil {
		t.Fatal(err)
	}
	return est, out
}

// serialWeightedBlocks is serialBlocks for a weighted block job.
func serialWeightedBlocks(t *testing.T, cfg runner.Config, T int, fill runner.BlockSampler, mk func() runner.WeightedBlockVerdict) (runner.WeightedEstimate, []outcome) {
	t.Helper()
	var out []outcome
	cfg.Workers = 1
	est, err := runner.RunStreamWeightedBlocks(cfg, T, fill, func() recordWeighted { return recordWeighted{mk(), &out} })
	if err != nil {
		t.Fatal(err)
	}
	return est, out
}

// checkPerSample compares every recorded outcome — hit and weight, bit
// for bit — with want run on that sample's own freshly seeded
// SampleSeed stream, and the driver's hit count with the recorded hits.
// cfg must set BatchSize.
func checkPerSample(t *testing.T, name string, cfg runner.Config, hits int, out []outcome, want func(*runner.SM64) outcome) {
	t.Helper()
	if len(out) != cfg.N {
		t.Fatalf("%s: %d samples recorded, want %d", name, len(out), cfg.N)
	}
	recorded := 0
	for i, got := range out {
		var rng runner.SM64
		rng.Reseed(runner.SampleSeed(cfg.Seed, i/cfg.BatchSize, i%cfg.BatchSize))
		ref := want(&rng)
		if got.hit != ref.hit || math.Float64bits(got.weight) != math.Float64bits(ref.weight) {
			t.Fatalf("%s: sample %d: block %+v != reference %+v", name, i, got, ref)
		}
		if got.hit {
			recorded++
		}
	}
	if recorded != hits {
		t.Fatalf("%s: estimate counts %d hits, samples recorded %d", name, hits, recorded)
	}
}

// sliceRef is the slice-verdict reference: the sample's T symbols,
// decoded one draw at a time, judged whole, weight 1.
func sliceRef(t *testing.T, T int, sample runner.SymbolSampler, verdict runner.Verdict) func(*runner.SM64) outcome {
	return func(rng *runner.SM64) outcome {
		w := make(charstring.String, T)
		for i := range w {
			w[i] = sample(rng, i+1)
		}
		hit, err := verdict(w)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{hit, 1}
	}
}

// scanRef is the scalar-scanner reference: v fed one decoded symbol at
// a time until it decides.
func scanRef(t *testing.T, T int, sample runner.SymbolSampler, v runner.WeightedStreamVerdict) func(*runner.SM64) outcome {
	return func(rng *runner.SM64) outcome {
		v.Begin(rng)
		for slot := 1; slot <= T; slot++ {
			if v.Feed(sample(rng, slot)) {
				break
			}
		}
		hit, w, err := v.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{hit, w}
	}
}

// unit runs an unweighted scanner as a weighted one with weight 1.
type unit struct{ runner.StreamVerdict }

func (u unit) Begin(*runner.SM64) { u.Reset() }
func (u unit) Finish() (bool, float64, error) {
	hit, err := u.StreamVerdict.Finish()
	return hit, 1, err
}

func checkRunnerWorkerInvariance(t *testing.T, r *rand.Rand) {
	p := randParams(t, r)
	m, k := 5+r.Intn(20), 10+r.Intn(30)
	T := m + k
	cfg := runner.Config{N: 4000, Seed: r.Int63(), BatchSize: 128}
	fill := mc.BlockBernoulliMaskSampler(p)
	mk := func() runner.BlockVerdict { return mc.NewSettlementStreamVerdict(m, T).(runner.BlockVerdict) }

	want, out := serialBlocks(t, cfg, T, fill, mk)
	checkPerSample(t, "E3-settlement", cfg, want.Hits, out,
		sliceRef(t, T, mc.StreamBernoulliSampler(p), mc.SettlementViolationVerdict(m)))
	for _, workers := range []int{3, 8} {
		cfg.Workers = workers
		est, err := runner.RunStreamBlocks(cfg, T, fill, mk)
		if err != nil {
			t.Fatal(err)
		}
		if est != want {
			t.Fatalf("workers=%d: estimate %+v != workers=1 %+v", workers, est, want)
		}
	}
}

// checkRunnerBlockScalarIdentity pins the block-generated streaming core
// sample by sample: for each of the five experiment verdicts every
// sample's block outcome must equal both the scalar scanner and the slice
// verdict on the symbols decoded from its own stream, and for the tilted
// wrappings every sample's (hit, weight) must equal the scalar scanner's
// bit for bit. Decision points may differ inside a block — a verdict that
// has decided simply sees more symbols of its own stream — so equality
// per sample is exactly the "over-drawing is unobservable" contract.
func checkRunnerBlockScalarIdentity(t *testing.T, r *rand.Rand) {
	p := randParams(t, r)
	sp, err := charstring.NewSemiSyncParams(0.7, 0.15, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.Config{N: 4000, Seed: r.Int63(), BatchSize: 128}

	s, k := 2+r.Intn(8), 8+r.Intn(24)
	m := 5 + r.Intn(20)
	mT := m + 10 + r.Intn(30)
	wT := s + 2*k
	delta := r.Intn(3)
	dT := s + int(float64(2*k+40)/sp.ActiveRate()) + delta
	mkDelta := func() runner.StreamVerdict {
		v, err := mc.NewDeltaUnsettledStreamVerdict(s, k, delta, dT)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	cases := []struct {
		name   string
		T      int
		scalar runner.SymbolSampler
		block  runner.BlockSampler
		mk     func() runner.StreamVerdict
		slice  runner.Verdict
	}{
		{"E1-noUHCatalan", wT, mc.StreamBernoulliSampler(p), mc.BlockBernoulliMaskSampler(p),
			func() runner.StreamVerdict { return mc.NewNoUHCatalanStreamVerdict(s, k) },
			mc.NoUniquelyHonestCatalanVerdict(s, k)},
		{"E2-noConsecCatalan", wT, mc.StreamBernoulliSampler(p), mc.BlockBernoulliMaskSampler(p),
			func() runner.StreamVerdict { return mc.NewNoConsecCatalanStreamVerdict(s, k) },
			mc.NoConsecutiveCatalanVerdict(s, k)},
		{"E3-settlement", mT, mc.StreamBernoulliSampler(p), mc.BlockBernoulliMaskSampler(p),
			func() runner.StreamVerdict { return mc.NewSettlementStreamVerdict(m, mT) },
			mc.SettlementViolationVerdict(m)},
		{"E5-commonPrefix", wT, mc.StreamBernoulliSampler(p), mc.BlockBernoulliSampler(p),
			func() runner.StreamVerdict { return mc.NewCPStreamVerdict(k, true) },
			mc.CPViolationVerdict(k, true)},
		{"E4-deltaUnsettled", dT, mc.StreamConditionedSemiSyncSampler(sp, s),
			mc.BlockConditionedSemiSyncSampler(sp, s), mkDelta,
			mc.DeltaUnsettledVerdict(s, k, delta)},
	}
	for _, tc := range cases {
		est, out := serialBlocks(t, cfg, tc.T, tc.block, func() runner.BlockVerdict { return tc.mk().(runner.BlockVerdict) })
		checkPerSample(t, tc.name+"/scalar", cfg, est.Hits, out, scanRef(t, tc.T, tc.scalar, unit{tc.mk()}))
		checkPerSample(t, tc.name+"/slice", cfg, est.Hits, out, sliceRef(t, tc.T, tc.scalar, tc.slice))
	}

	ts := rare.TiltSync(p, 0.05+0.3*r.Float64())
	tsem := rare.TiltSemiSync(sp, 0.02+0.1*r.Float64())
	wcases := []struct {
		name   string
		T      int
		scalar runner.SymbolSampler
		block  runner.BlockSampler
		mk     func() *rare.TiltedVerdict
	}{
		{"E3-tilted", mT, ts.Sampler(m), ts.BlockSampler(m), func() *rare.TiltedVerdict {
			return &rare.TiltedVerdict{Inner: mc.NewSettlementStreamVerdict(m, mT), Tilt: ts.Tilt, Skip: m}
		}},
		{"E4-tilted", dT, tsem.Sampler(s, s), tsem.BlockSampler(s, s), func() *rare.TiltedVerdict {
			return &rare.TiltedVerdict{Inner: mkDelta(), Tilt: tsem.Tilt, Skip: s}
		}},
	}
	for _, tc := range wcases {
		est, out := serialWeightedBlocks(t, cfg, tc.T, tc.block, func() runner.WeightedBlockVerdict { return tc.mk() })
		checkPerSample(t, tc.name, cfg, est.Hits, out, scanRef(t, tc.T, tc.scalar, tc.mk()))
	}
}

func checkRunnerWeightedWorkerInvariance(t *testing.T, r *rand.Rand) {
	p := randParams(t, r)
	m, k := 3+r.Intn(10), 10+r.Intn(30)
	T := m + k
	theta := 0.05 + 0.3*r.Float64()
	ts := rare.TiltSync(p, theta)
	seed := r.Int63()
	cfg := runner.Config{N: 4000, Seed: seed, BatchSize: 128}

	var ref runner.WeightedEstimate
	for i, workers := range []int{1, 4, 9} {
		cfg.Workers = workers
		est, err := runner.RunStreamWeightedBlocks(cfg, T, ts.BlockSampler(m),
			func() *rare.TiltedVerdict {
				return &rare.TiltedVerdict{
					Inner: mc.NewSettlementStreamVerdict(m, T),
					Tilt:  ts.Tilt,
					Skip:  m,
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = est
			continue
		}
		if est != ref {
			t.Fatalf("workers=%d: weighted estimate %+v != workers=1 %+v", workers, est, ref)
		}
	}
}
