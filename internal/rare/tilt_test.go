package rare

import (
	"math"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/mc"
	"multihonest/internal/runner"
	"multihonest/internal/settlement"
)

// TestUnitTiltBitIdentical is the exactness pin of the tilting engine: at
// θ = 0 the proposal is the true law, every weight is exactly 1, and the
// weighted run IS the PR 3 streaming path — same SampleSeed streams, same
// threshold tables, same verdict — so the estimate matches
// mc.SettlementViolation bit for bit, not just statistically.
func TestUnitTiltBitIdentical(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35)
	const m, k, n, seed = 120, 40, 40000, 42

	// Round 0 of the stopping rule runs at the derived job seed
	// roundSeed(seed, 0); point the unweighted reference at the same one.
	old := mc.SettlementViolation(p, m, k, n, roundSeed(seed, 0), 0)

	r, err := SettlementPrefixTilted(p, m, k, Options{Theta: 0, N: n, MaxRounds: 1, Seed: seed, RelErr: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hits != old.Hits {
		t.Fatalf("unit tilt hits %d != streaming hits %d", r.Hits, old.Hits)
	}
	if r.P != old.P {
		t.Fatalf("unit tilt P %v (bits %x) != streaming P %v (bits %x)",
			r.P, math.Float64bits(r.P), old.P, math.Float64bits(old.P))
	}
	if r.SumW != float64(old.Hits) {
		t.Fatalf("unit tilt SumW %v != hit count %d (weights not exactly 1)", r.SumW, old.Hits)
	}
}

// TestUnitTiltSamplesIdentical pins the alignment at the engine layer,
// with no stopping rule in between: RunStreamWeightedBlocks over the
// θ = 0 tilted sampler and wrapped verdict reproduces RunStreamBlocks
// over the plain sampler and verdict exactly at the same Config.
func TestUnitTiltSamplesIdentical(t *testing.T) {
	p := charstring.MustParams(0.3, 0.25)
	const m, k, n, seed = 60, 30, 30000, 1729
	cfg := runner.Config{N: n, Seed: seed, Workers: 3}

	law := TiltSync(p, 0)
	weighted, err := runner.RunStreamWeightedBlocks(cfg, m+k, law.BlockSampler(m), func() *TiltedVerdict {
		return &TiltedVerdict{Inner: mc.NewSettlementStreamVerdict(m, m+k), Tilt: law.Tilt, Skip: m}
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runner.RunStreamBlocks(cfg, m+k, mc.BlockBernoulliMaskSampler(p), func() runner.BlockVerdict {
		return mc.NewSettlementStreamVerdict(m, m+k).(runner.BlockVerdict)
	})
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Hits != plain.Hits || weighted.P != plain.P {
		t.Fatalf("θ=0 weighted (%d hits, P=%v) != unweighted (%d hits, P=%v)",
			weighted.Hits, weighted.P, plain.Hits, plain.P)
	}
}

// TestTiltZeroShortCircuit: the θ = 0 law uses the base threshold table
// verbatim and a zero log-normalizer.
func TestTiltZeroShortCircuit(t *testing.T) {
	p := charstring.MustParams(0.35, 0.2)
	law := TiltSync(p, 0)
	if law.th != p.Thresholds() {
		t.Fatal("θ=0 tilted thresholds differ from the base table")
	}
	if law.LogM != 0 || law.Theta != 0 {
		t.Fatalf("θ=0 tilt constants not zero: %+v", law.Tilt)
	}
	sp, err := charstring.NewSemiSyncParams(0.7, 0.15, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	slaw := TiltSemiSync(sp, 0)
	if slaw.th != sp.Thresholds() || slaw.LogM != 0 {
		t.Fatal("θ=0 semi-sync tilt is not the base law")
	}
}

// TestTiltedLawNormalized: the tilted probabilities form a law and their
// likelihood ratios against the base law average to 1 under the proposal.
func TestTiltedLawNormalized(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35)
	ph, pH, pA := p.Probabilities()
	for _, theta := range []float64{-0.3, 0.2, 0.5, SaddleTheta(p), 1.1} {
		e, en := math.Exp(theta), math.Exp(-theta)
		m := pA*e + (ph+pH)*en
		qA, qh, qH := pA*e/m, ph*en/m, pH*en/m
		if d := math.Abs(qA + qh + qH - 1); d > 1e-12 {
			t.Fatalf("θ=%v: tilted law sums to 1%+.2e", theta, d)
		}
		// E_q[LR] = Σ_σ q(σ)·p(σ)/q(σ) = 1 trivially; check the computed
		// LLR constants instead: log M − θ·walk must equal log(p/q).
		tl := TiltSync(p, theta)
		for _, c := range []struct {
			walk int
			pq   float64
		}{{+1, pA / qA}, {-1, ph / qh}, {-1, pH / qH}} {
			if d := math.Abs(tl.LLR(1, c.walk) - math.Log(c.pq)); d > 1e-12 {
				t.Fatalf("θ=%v walk=%d: LLR %v != log(p/q) %v", theta, c.walk, tl.LLR(1, c.walk), math.Log(c.pq))
			}
		}
	}
}

// TestSolveTheta: the saddle closed form and the drift condition.
func TestSolveTheta(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35)
	th, err := SolveTheta(p.PA(), p.Q(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(th - SaddleTheta(p)); d > 1e-12 {
		t.Fatalf("SolveTheta(d=0) %v != SaddleTheta %v", th, SaddleTheta(p))
	}
	// Realized drift of the tilted law must hit the target, with and
	// without an empty-slot atom.
	for _, pe := range []float64{0, 0.6} {
		scale := 1 - pe
		pA, pHon := 0.3*scale, 0.7*scale
		for _, d := range []float64{-0.5, -0.1, 0, 0.25, 0.6} {
			th, err := SolveTheta(pA, pHon, pe, d)
			if err != nil {
				t.Fatal(err)
			}
			e, en := math.Exp(th), math.Exp(-th)
			m := pe + pA*e + pHon*en
			drift := (pA*e - pHon*en) / m
			if diff := math.Abs(drift - d); diff > 1e-9 {
				t.Fatalf("p⊥=%v target %v: realized drift %v", pe, d, drift)
			}
		}
	}
}

// TestSettlementTiltedMatchesDP: the margin-conditioned tilted estimator
// reproduces the exact DP value within its 95% interval at fixed and
// pilot-selected tilts.
func TestSettlementTiltedMatchesDP(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35) // α = 0.3
	const k = 120
	exact, err := settlement.New(p).ViolationProbability(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0.55 * SaddleTheta(p), 0} { // fixed and auto
		r, err := SettlementTilted(p, k, Options{Theta: theta, N: 50000, MaxRounds: 6, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if exact < r.Lo || exact > r.Hi {
			t.Fatalf("θ=%v: DP value %.4e outside tilted 95%% CI [%.4e, %.4e] (est %v)",
				theta, exact, r.Lo, r.Hi, r.WeightedEstimate)
		}
		if r.ESS < 100 {
			t.Fatalf("θ=%v: implausibly low ESS %v at k=%d", theta, r.ESS, k)
		}
	}
}

// TestSettlementPrefixTiltedMatchesDP: the finite-prefix tilted estimator
// reproduces the exact finite-prefix DP curve within its interval.
func TestSettlementPrefixTiltedMatchesDP(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35)
	const m, k = 150, 90
	curve, err := settlement.New(p).ViolationCurveFinitePrefix(m, k)
	if err != nil {
		t.Fatal(err)
	}
	exact := curve[k-1]
	r, err := SettlementPrefixTilted(p, m, k, Options{Theta: 0.5 * SaddleTheta(p), N: 60000, MaxRounds: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if exact < r.Lo || exact > r.Hi {
		t.Fatalf("finite-prefix DP %.4e outside tilted CI [%.4e, %.4e] (%v)", exact, r.Lo, r.Hi, r.WeightedEstimate)
	}
}

// TestCPTiltedMatchesPlainMC: the tilted E5 estimator agrees with the
// plain streaming estimator at a moderate event probability.
func TestCPTiltedMatchesPlainMC(t *testing.T) {
	p := charstring.MustParams(0.4, 0.3)
	const T, k, n = 250, 35, 60000
	plain := mc.CPViolationPossible(p, T, k, n, 21, false, 0)
	r, err := CPTilted(p, T, k, false, Options{Theta: 0.25 * SaddleTheta(p), N: n, MaxRounds: 2, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	tol := 3*math.Sqrt(plain.P*(1-plain.P)/float64(n)) + 3*1.96*r.SE
	if d := math.Abs(r.P - plain.P); d > tol {
		t.Fatalf("tilted E5 %v vs plain %v differ by %v > %v", r.P, plain.P, d, tol)
	}
}

// TestDeltaTiltedMatchesPlainMC: the tilted quadrivalent E4 estimator
// agrees with the plain streaming estimator.
func TestDeltaTiltedMatchesPlainMC(t *testing.T) {
	sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const delta, s, k, tail, n = 2, 8, 35, 100, 60000
	plain, err := mc.DeltaUnsettled(sp, delta, s, k, tail, n, 31, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DeltaUnsettledTilted(sp, delta, s, k, tail, Options{N: n, MaxRounds: 2, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	tol := 3*math.Sqrt(plain.P*(1-plain.P)/float64(n)) + 3*1.96*r.SE
	if d := math.Abs(r.P - plain.P); d > tol {
		t.Fatalf("tilted E4 %v vs plain %v differ by %v > %v", r.P, plain.P, d, tol)
	}
}

// TestTiltedWorkerInvariance: the weighted estimates are bit-identical at
// every worker count, including the pilot.
func TestTiltedWorkerInvariance(t *testing.T) {
	p := charstring.MustParams(0.5, 0.3)
	const k = 60
	var ref Result
	for i, workers := range []int{1, 4, 8} {
		r, err := SettlementTilted(p, k, Options{N: 20000, MaxRounds: 2, Seed: 77, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = r
			continue
		}
		if r.P != ref.P || r.SumW != ref.SumW || r.SumW2 != ref.SumW2 || r.Hits != ref.Hits || r.Theta != ref.Theta {
			t.Fatalf("workers=%d: estimate differs from workers=1: %+v vs %+v", workers, r.WeightedEstimate, ref.WeightedEstimate)
		}
	}
}

// TestFusedLoopZeroAllocs extends the PR 3 allocation guard to the
// LR-weighted verdicts: one full weighted sample — reseed, Begin
// (including the stationary-reach draw), draw and feed every symbol, LLR
// accumulation, Finish with its Exp — performs zero heap allocations in
// steady state for every tilted verdict shape.
func TestFusedLoopZeroAllocs(t *testing.T) {
	p := charstring.MustParams(0.4, 0.35)
	sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	law := TiltSync(p, 0.3)
	slaw := TiltSemiSync(sp, 0.2)
	deltaInner, err := mc.NewDeltaUnsettledStreamVerdict(8, 40, 3, 400)
	if err != nil {
		t.Fatal(err)
	}

	type weighted interface {
		Begin(*runner.SM64)
		Feed(charstring.Symbol) bool
		Finish() (bool, float64, error)
	}
	cases := []struct {
		name    string
		T       int
		sample  runner.SymbolSampler
		verdict weighted
	}{
		{"E3-PrefixTilted", 700, law.Sampler(600),
			&TiltedVerdict{Inner: mc.NewSettlementStreamVerdict(600, 700), Tilt: law.Tilt, Skip: 600}},
		{"E5-CPTilted", 400, law.Sampler(0),
			&TiltedVerdict{Inner: mc.NewCPStreamVerdict(40, false), Tilt: law.Tilt}},
		{"E4-DeltaTilted", 400, slaw.Sampler(8, 8),
			&TiltedVerdict{Inner: deltaInner, Tilt: slaw.Tilt, Skip: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rng runner.SM64
			sampleOnce := func(seed uint64) {
				rng.Reseed(seed)
				tc.verdict.Begin(&rng)
				for slot := 1; slot <= tc.T; slot++ {
					if tc.verdict.Feed(tc.sample(&rng, slot)) {
						break
					}
				}
				if _, _, err := tc.verdict.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				sampleOnce(runner.SampleSeed(1, 0, i))
			}
			var i uint64
			allocs := testing.AllocsPerRun(200, func() {
				sampleOnce(runner.SampleSeed(2, 0, int(i)))
				i++
			})
			if allocs != 0 {
				t.Fatalf("weighted fused loop allocates %.1f allocs per sample, want 0", allocs)
			}
		})
	}

	t.Run("E3-MarginConditioned", func(t *testing.T) {
		st := newMarginTiltState(p, 250, []float64{0.3, 0.21, 0.36}, 0.3)
		var rng runner.SM64
		sampleOnce := func(seed uint64) {
			rng.Reseed(seed)
			st.Begin(&rng)
			for !st.Step(&rng) {
			}
			if _, _, err := st.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			sampleOnce(runner.SampleSeed(1, 0, i))
		}
		var i uint64
		allocs := testing.AllocsPerRun(200, func() {
			sampleOnce(runner.SampleSeed(2, 0, int(i)))
			i++
		})
		if allocs != 0 {
			t.Fatalf("margin-conditioned state allocates %.1f allocs per sample, want 0", allocs)
		}
	})
}
