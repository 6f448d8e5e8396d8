package runner

import (
	"fmt"

	"multihonest/internal/charstring"
	"multihonest/internal/stats"
)

// This file is the weighted half of the streaming engine: the fused
// sample–judge loop generalized to verdicts that attach an importance
// weight (a likelihood ratio) to every sample. It exists for the
// rare-event estimators of package rare — exponential tilting draws from
// a proposal law and corrects each hit by its accumulated likelihood
// ratio — and collapses to the unweighted semantics when every weight
// is 1.
//
// # Determinism
//
// Weighted sums are float64, and float addition does not commute
// bitwise, so the fold order must not depend on scheduling. runBatches
// pins it for every job: each batch's partial sums are stored in a slot
// indexed by batch and reduced in batch order after all workers finish.
// Together with the per-sample SampleSeed streams (sample i of batch b
// draws the same symbols whoever runs it) the WeightedEstimate is
// bit-identical at every worker count, and invariant under verdict early
// exit.

// WeightedStreamVerdict is the weighted counterpart of StreamVerdict. The
// engine drives it as Begin, then Feed per symbol until either Feed
// reports the verdict decided or T symbols have been fed, then Finish.
//
// Begin receives the sample's deterministic random stream before any
// symbol is drawn, so a verdict may consume leading randomness — e.g.
// drawing an initial reach from the stationary law X∞. The symbols the
// engine feeds afterwards come from the same stream, positioned after
// whatever Begin consumed.
//
// Finish returns the verdict together with the sample's weight: the
// likelihood ratio dLaw/dProposal accumulated over everything the sample
// consumed (1 for unweighted verdicts). Weights must be non-negative and
// finite. As with StreamVerdict, Feed may only report decided when no
// continuation could change the (verdict, weight) pair that Finish will
// return — early exit must be unobservable in the estimate, which for
// likelihood-ratio weights holds because the unconsumed suffix has
// conditional expected ratio 1 and is independent of the decided verdict.
//
// Implementations carry reusable scratch and are NOT safe for concurrent
// use: the drivers give every worker its own instance.
type WeightedStreamVerdict interface {
	// Begin prepares the scratch for a fresh sample and may draw leading
	// randomness from the sample's stream.
	Begin(rng *SM64)
	// Feed consumes the next symbol and reports whether the verdict is
	// already decided (early exit).
	Feed(sym charstring.Symbol) (decided bool)
	// Finish returns the verdict and the sample's importance weight.
	Finish() (hit bool, weight float64, err error)
}

// WeightedEstimate is an importance-sampling frequency estimate: the mean
// of x_i = weight_i·1{hit_i} with a normal-approximation 95% interval and
// the effective sample size of the hit weights. It is the result type of
// the weighted drivers and of the rare-event engines built on them.
type WeightedEstimate struct {
	N     int     // total samples
	Hits  int     // raw hit count (unweighted)
	SumW  float64 // Σ weight_i·1{hit_i}
	SumW2 float64 // Σ (weight_i·1{hit_i})²
	P     float64 // point estimate SumW/N
	SE    float64 // standard error of P
	Lo    float64 // P − 1.96·SE, clamped at 0
	Hi    float64 // P + 1.96·SE
	ESS   float64 // effective sample size (SumW)²/SumW2 of the hit weights
}

// NewWeightedEstimate assembles a WeightedEstimate from folded sums.
func NewWeightedEstimate(n, hits int, sumW, sumW2 float64) WeightedEstimate {
	e := WeightedEstimate{N: n, Hits: hits, SumW: sumW, SumW2: sumW2}
	e.P, e.SE = stats.ISPoint(sumW, sumW2, n)
	e.Lo, e.Hi = stats.NormalCI(e.P, e.SE, 1.96)
	e.ESS = stats.ESS(sumW, sumW2)
	return e
}

// Merge folds another estimate into this one (disjoint sample sets, e.g.
// successive rounds of a stopping rule) and returns the combined estimate.
// Merging is performed on the raw sums, so a sequence of rounds merged in
// a fixed order is deterministic.
func (e WeightedEstimate) Merge(o WeightedEstimate) WeightedEstimate {
	return NewWeightedEstimate(e.N+o.N, e.Hits+o.Hits, e.SumW+o.SumW, e.SumW2+o.SumW2)
}

// RelErr returns the relative standard error SE/P (+Inf with no hits),
// the quantity the rare-event stopping rule drives below its target.
func (e WeightedEstimate) RelErr() float64 { return stats.RelErr(e.P, e.SE) }

// String renders the estimate compactly, e.g.
// "1.234e-11 ±9.5e-13 [ESS 1823, 2041/500000]".
func (e WeightedEstimate) String() string {
	return fmt.Sprintf("%.4g ±%.2g [ESS %.0f, %d/%d]", e.P, 1.96*e.SE, e.ESS, e.Hits, e.N)
}

// WeightedState is the self-sampling counterpart of
// WeightedStreamVerdict, for proposals whose symbol law depends on the
// evolving verdict state (e.g. the margin-conditioned tilt of package
// rare, which switches threshold tables on the boundary classes of the
// (ρ, µ) chain). The state draws its own randomness: Begin starts a fresh
// sample, Step advances it by one draw until it reports done, Finish
// returns the weighted verdict. The engine never caps the step count —
// states terminate by their own horizon.
//
// Implementations carry reusable scratch and are NOT safe for concurrent
// use: RunWeightedStates gives every worker its own instance.
type WeightedState interface {
	Begin(rng *SM64)
	Step(rng *SM64) (done bool)
	Finish() (hit bool, weight float64, err error)
}

// RunWeightedStates executes a weighted Monte-Carlo job over self-sampling
// states: cfg.N samples, each a fresh Begin on the per-worker state from
// newState followed by Step until done, drawing all randomness from the
// sample's SampleSeed stream. Same determinism and error contract as
// RunStreamWeightedBlocks.
func RunWeightedStates(cfg Config, newState func() WeightedState) (WeightedEstimate, error) {
	if newState == nil {
		return WeightedEstimate{}, fmt.Errorf("runner: nil state constructor")
	}
	s, err := runBatches(cfg, func() judge {
		st := newState()
		return func(rng *SM64) (bool, float64, error) {
			st.Begin(rng)
			for !st.Step(rng) {
			}
			return st.Finish()
		}
	})
	return weightedEstimate(cfg, s, err)
}

// weightedEstimate assembles a weighted driver's result from its folded
// batch sums.
func weightedEstimate(cfg Config, s batchSums, err error) (WeightedEstimate, error) {
	if err != nil {
		return WeightedEstimate{}, err
	}
	return NewWeightedEstimate(max(cfg.N, 0), s.hits, s.sumW, s.sumW2), nil
}
