// Package rare is the rare-event estimation subsystem: it certifies the
// deep tail of the settlement curves — the ≤ 1e-10 regime where the
// paper's headline Table 1 cells live — by independent Monte-Carlo
// estimators whose cost does not scale like 1/p. Two engines share one
// result surface:
//
//   - exponential tilting (tilt.go): importance sampling from an
//     exponentially tilted symbol law over the trivalent {h, H, A} or
//     quadrivalent {⊥, h, H, A} alphabet, with the per-sample
//     log-likelihood ratio telescoped into a handful of integer counters
//     fused into the PR 3 zero-allocation streaming loop; the stationary
//     settlement estimator refines this to a margin-conditioned tilt
//     (three boundary-class threshold tables approximating the Doob
//     h-transform) under a defensive mixture; and
//   - multilevel splitting (split.go): fixed-effort splitting on level
//     crossings of the margin/walk state, for verdicts where a good
//     i.i.d. tilt is unavailable (Δ-synchronous reduced strings) and as
//     an independent cross-check elsewhere.
//
// Both engines keep the repository's determinism contract: estimates are
// bit-identical at every worker count, every sample (or splitting
// replicate) drawing from its own runner.SampleSeed-derived stream and
// all float folds running in a fixed index order.
//
// cmd/rare drives the two engines against the lattice DP's rigorous
// [lower, lower+dropped] brackets and reports an agree/disagree verdict
// per point; DESIGN.md §10 carries the derivations.
package rare

import (
	"fmt"

	"multihonest/internal/charstring"
	"multihonest/internal/mc"
	"multihonest/internal/runner"
)

// Options configures a tilted estimation run.
type Options struct {
	// Theta is the symbol tilt. In SettlementTilted, 0 selects it
	// automatically (a pilot sweep over fractions of the saddle tilt, see
	// AutoTheta) and enables the defensive mixture; in
	// DeltaUnsettledTilted, 0 selects the half-saddle heuristic.
	Theta float64
	// ReachTheta tilts the stationary initial-reach proposal of the
	// settlement estimator (geometric ratio β·e^{ReachTheta}); 0 follows
	// the symbol tilt, the conjugate choice under which the reach LLR
	// cancels the θ·µ0 term of the margin-conditioned weight exactly.
	// Only SettlementTilted consults it.
	ReachTheta float64
	// N is the number of samples per round. 0 selects DefaultRoundSamples.
	N int
	// MaxRounds bounds the stopping rule. 0 selects DefaultMaxRounds.
	MaxRounds int
	// RelErr is the stopping target for the relative standard error SE/P.
	// 0 selects DefaultRelErr.
	RelErr float64
	// MinESS is the minimum effective sample size before stopping. 0
	// selects DefaultMinESS.
	MinESS float64
	// Seed selects the deterministic sample streams; Workers and
	// BatchSize are passed through to the runner (neither affects the
	// estimate; BatchSize is part of the sampling scheme, see runner.Config).
	Seed      int64
	Workers   int
	BatchSize int
}

// Defaults of the stopping rule.
const (
	DefaultRoundSamples = 100_000
	DefaultMaxRounds    = 40
	DefaultRelErr       = 0.05
	DefaultMinESS       = 1000
)

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = DefaultRoundSamples
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = DefaultMaxRounds
	}
	if o.RelErr <= 0 {
		o.RelErr = DefaultRelErr
	}
	if o.MinESS <= 0 {
		o.MinESS = DefaultMinESS
	}
	return o
}

// Result is one engine's answer for one estimation point.
type Result struct {
	runner.WeightedEstimate

	Engine string  // "tilt" or "split"
	Theta  float64 // realized tilt (tilt engine)
	Rounds int     // stopping-rule rounds merged (tilt engine)
	PilotN int     // samples spent selecting θ (tilt engine, auto mode)

	Levels       int // pause levels of the cascade (split engine)
	Trajectories int // total particle trajectories driven (split engine)
}

// roundSeed derives the deterministic job seed of stopping-rule round r.
func roundSeed(seed int64, r int) int64 {
	return int64(runner.SampleSeed(seed, r, 0))
}

// runTilted executes the round-based stopping rule over
// RunStreamWeightedBlocks jobs: rounds of opt.N samples are merged in
// round order until the relative-error and ESS targets are met or
// MaxRounds is exhausted. The block core draws the same per-sample streams
// as the scalar weighted loop, so estimates are unchanged from the
// symbol-at-a-time engine this ran on before.
func runTilted(opt Options, T int, fill runner.BlockSampler, newVerdict func() *TiltedVerdict) (runner.WeightedEstimate, int, error) {
	var est runner.WeightedEstimate
	cfg := runner.Config{N: opt.N, Workers: opt.Workers, BatchSize: opt.BatchSize, Name: "rare_tilted"}
	for r := 0; r < opt.MaxRounds; r++ {
		cfg.Seed = roundSeed(opt.Seed, r)
		e, err := runner.RunStreamWeightedBlocks(cfg, T, fill, newVerdict)
		if err != nil {
			return est, r, err
		}
		est = est.Merge(e)
		if est.RelErr() <= opt.RelErr && est.ESS >= opt.MinESS {
			return est, r + 1, nil
		}
	}
	return est, opt.MaxRounds, nil
}

// AutoTheta selects the tilt by a deterministic pilot sweep: candidate
// tilts c·thetaStar for c in fracs are each given pilotN samples and the
// candidate minimizing the realized relative standard error (with hits)
// wins; with no hits anywhere the saddle tilt itself is returned. run
// executes one pilot job at a given tilt.
func AutoTheta(thetaStar float64, fracs []float64, pilotN int, seed int64,
	run func(theta float64, n int, seed int64) (runner.WeightedEstimate, error)) (float64, int, error) {
	if len(fracs) == 0 {
		fracs = []float64{0.35, 0.5, 0.65, 0.8, 1.0}
	}
	best, bestScore := thetaStar, 0.0
	found := false
	spent := 0
	for i, c := range fracs {
		theta := c * thetaStar
		e, err := run(theta, pilotN, roundSeed(seed, -(i+1)))
		spent += pilotN
		if err != nil {
			return 0, spent, err
		}
		if e.Hits == 0 {
			continue
		}
		score := e.RelErr()
		if !found || score < bestScore {
			best, bestScore, found = theta, score, true
		}
	}
	return best, spent, nil
}

// SettlementTilted estimates the exact DP quantity — Pr[µ_x(y) ≥ 0] for
// |y| = k under the |x| → ∞ stationary initial reach law — by importance
// sampling from the margin-conditioned tilted proposal (three
// boundary-class threshold tables, see marginTiltState), with the initial
// reach drawn from the conjugate tilted geometric. Theta = 0 in opt
// selects the tilt by pilot sweep; the returned Result carries the
// realized tilt. The estimate targets the same quantity as
// settlement.Computer.ViolationProbability and the τ-pruned brackets,
// which is what cmd/rare checks it against.
func SettlementTilted(p charstring.Params, k int, opt Options) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("rare: k = %d must be ≥ 1", k)
	}
	opt = opt.withDefaults()
	newState := func(thetas []float64) func() runner.WeightedState {
		reachTheta := opt.ReachTheta
		if reachTheta == 0 {
			reachTheta = thetas[0]
		}
		return func() runner.WeightedState {
			return newMarginTiltState(p, k, thetas, reachTheta)
		}
	}
	theta, pilotN := opt.Theta, 0
	// Auto mode runs the production rounds on a defensive three-component
	// mixture bracketing the pilot winner: samples draw a component
	// uniformly and are weighted against the full mixture density (see
	// marginTiltState.Finish), so the weight tail of an over-aggressive
	// tilt is capped by its most conservative neighbor. An explicit
	// opt.Theta runs the pure single tilt (the caller owns the proposal).
	mix := []float64{theta}
	if theta == 0 {
		var err error
		theta, pilotN, err = AutoTheta(SaddleTheta(p), nil, max(opt.N/10, 10_000), opt.Seed,
			func(th float64, n int, seed int64) (runner.WeightedEstimate, error) {
				return runner.RunWeightedStates(runner.Config{N: n, Seed: seed, Workers: opt.Workers, BatchSize: opt.BatchSize, Name: "rare_pilot"}, newState([]float64{th}))
			})
		if err != nil {
			return Result{}, err
		}
		mix = []float64{theta, 0.7 * theta, 1.2 * theta}
	}
	var est runner.WeightedEstimate
	rounds := 0
	cfg := runner.Config{N: opt.N, Workers: opt.Workers, BatchSize: opt.BatchSize, Name: "rare_margin_tilt"}
	for r := 0; r < opt.MaxRounds; r++ {
		cfg.Seed = roundSeed(opt.Seed, r)
		e, err := runner.RunWeightedStates(cfg, newState(mix))
		if err != nil {
			return Result{}, err
		}
		est = est.Merge(e)
		rounds = r + 1
		if est.RelErr() <= opt.RelErr && est.ESS >= opt.MinESS {
			break
		}
	}
	return Result{WeightedEstimate: est, Engine: "tilt", Theta: theta, Rounds: rounds, PilotN: pilotN}, nil
}

// DeltaUnsettledTilted estimates the E4 event (slot s lacks the Lemma 2
// (k, Δ)-settlement certificate) under the tilted quadrivalent law. The
// conditioned slot s and everything before it stay on the true law (skip
// = s), so the leader conditioning needs no likelihood correction.
func DeltaUnsettledTilted(sp charstring.SemiSyncParams, delta, s, k, tail int, opt Options) (Result, error) {
	f := sp.ActiveRate()
	if f <= 0 {
		return Result{}, fmt.Errorf("rare: zero activity rate")
	}
	opt = opt.withDefaults()
	T := s + int(float64(2*k+tail)/f) + delta
	if _, err := mc.NewDeltaUnsettledStreamVerdict(s, k, delta, T); err != nil {
		return Result{}, err
	}
	theta := opt.Theta
	if theta == 0 {
		// The saddle tilt of the active-symbol walk, halved: the reduced
		// string's law is not i.i.d. in the raw symbols, so the full
		// saddle overshoots; splitting is the reference engine here.
		pHon := sp.Ph + sp.PH
		th, err := SolveTheta(sp.PA, pHon, sp.PEmpty, 0)
		if err != nil {
			return Result{}, err
		}
		theta = th / 2
	}
	law := TiltSemiSync(sp, theta)
	est, rounds, err := runTilted(opt, T, law.BlockSampler(s, s), func() *TiltedVerdict {
		v, err := mc.NewDeltaUnsettledStreamVerdict(s, k, delta, T)
		if err != nil {
			panic(fmt.Sprintf("rare: delta verdict construction failed after validation: %v", err))
		}
		return &TiltedVerdict{Inner: v, Tilt: law.Tilt, Skip: s}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{WeightedEstimate: est, Engine: "tilt", Theta: theta, Rounds: rounds}, nil
}

// SettlementSplit estimates the stationary settlement quantity of
// SettlementTilted by fixed-effort multilevel splitting on the margin
// walk — the independent cross-check engine. A nil cfg.Levels selects
// MarginLevels.
func SettlementSplit(p charstring.Params, k int, cfg SplitConfig) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("rare: k = %d must be ≥ 1", k)
	}
	if cfg.Levels == nil {
		cfg.Levels = MarginLevels(p, k)
	}
	est, err := RunSplit(cfg, func() SplitState { return newMarginSplitState(p, k) })
	if err != nil {
		return Result{}, err
	}
	return Result{
		WeightedEstimate: est, Engine: "split", Levels: len(cfg.Levels),
		Trajectories: cfg.replicates() * cfg.particles() * (len(cfg.Levels) + 1),
	}, nil
}

// DeltaUnsettledSplit estimates the E4 event by splitting on the
// candidate-free progress of the reduced settlement window. A nil
// cfg.Levels selects DeltaLevels.
func DeltaUnsettledSplit(sp charstring.SemiSyncParams, delta, s, k, tail int, cfg SplitConfig) (Result, error) {
	f := sp.ActiveRate()
	if f <= 0 {
		return Result{}, fmt.Errorf("rare: zero activity rate")
	}
	T := s + int(float64(2*k+tail)/f) + delta
	if _, err := newDeltaSplitState(sp, delta, s, k, T); err != nil {
		return Result{}, err
	}
	if cfg.Levels == nil {
		cfg.Levels = DeltaLevels(k)
	}
	est, err := RunSplit(cfg, func() SplitState {
		st, err := newDeltaSplitState(sp, delta, s, k, T)
		if err != nil {
			panic(fmt.Sprintf("rare: delta split construction failed after validation: %v", err))
		}
		return st
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		WeightedEstimate: est, Engine: "split", Levels: len(cfg.Levels),
		Trajectories: cfg.replicates() * cfg.particles() * (len(cfg.Levels) + 1),
	}, nil
}
