package rare

import (
	"fmt"

	"multihonest/internal/charstring"
	"multihonest/internal/deltasync"
	"multihonest/internal/margin"
	"multihonest/internal/runner"
)

// This file is the multilevel-splitting engine: fixed-effort splitting on
// level crossings of an importance function over the margin/walk state,
// for verdicts where a good i.i.d. symbol tilt is unavailable (the
// Δ-synchronous reduction makes the reduced-string law non-i.i.d. in the
// raw symbols) and as an independent cross-check of the tilted engine
// elsewhere.
//
// # Fixed-effort splitting
//
// A particle is a Markov state driven by fresh symbol randomness. Stage ℓ
// starts N particles from the empirical entry distribution of level L_ℓ
// (multinomial resampling from the states that crossed), drives each until
// its running importance reaches L_{ℓ+1} or the trajectory ends, and
// records the crossing fraction f_{ℓ+1}. After the last pause level the
// final stage drives every particle to completion and counts target hits.
// The product f_1·…·f_m·(hit fraction) is an unbiased estimator of the
// target probability provided every hit trajectory's running importance
// reaches every pause level — the states below guarantee this by
// construction (their importance at completion dominates the final level
// whenever the trajectory hits). Variance is estimated over independent
// replicates of the whole cascade; the engine never compares floats across
// replicates, so the estimate is bit-identical at every worker count
// (replicates are folded in index order).

// SplitState is one particle of the splitting engine: a clonable Markov
// state advanced by internally drawn symbols, exposing a scalar importance
// level and a terminal hit verdict. Implementations carry reusable scratch
// and are not safe for concurrent use; the engine gives every worker its
// own pool.
type SplitState interface {
	// Start draws a fresh initial state from the particle's entry law.
	Start(rng *runner.SM64)
	// Advance draws the next symbol and applies it.
	Advance(rng *runner.SM64)
	// Done reports that the trajectory has reached its horizon.
	Done() bool
	// Importance returns the current level value. Hit trajectories must
	// reach every pause level by completion (see the file comment).
	Importance() float64
	// Hit reports the target event; meaningful once Done.
	Hit() bool
	// CopyFrom overwrites the state with a snapshot of src, which is of
	// the same concrete type.
	CopyFrom(src SplitState)
}

// SplitConfig describes one splitting job.
type SplitConfig struct {
	// Particles is the fixed effort: the population size of every stage.
	// 0 selects DefaultParticles.
	Particles int
	// Levels are the ascending pause levels L_1 < … < L_m of the cascade.
	// Empty levels degrade to plain Monte-Carlo over Particles samples.
	Levels []float64
	// Replicates is the number of independent cascade replications used
	// for the variance estimate. 0 selects DefaultReplicates.
	Replicates int
	// Seed selects the deterministic randomness; Workers only sets the
	// parallel fan-out over replicates and never affects the estimate.
	Seed    int64
	Workers int
}

// DefaultParticles is the per-stage population when SplitConfig.Particles
// is zero.
const DefaultParticles = 512

// DefaultReplicates is the replication count when SplitConfig.Replicates
// is zero. Replicate estimates of deep cascades are right-skewed, so the
// normal-approximation interval needs a healthy replicate count for
// honest coverage — the default budget deliberately favors many modest
// cascades over few large ones (calibration runs put the estimator's
// bias below 0.1%, while intervals from a few dozen replicates of
// 50-level cascades undercover visibly). Deep points with replicate ESS
// below a few hundred deserve a larger explicit Replicates.
const DefaultReplicates = 384

func (c SplitConfig) particles() int {
	if c.Particles > 0 {
		return c.Particles
	}
	return DefaultParticles
}

func (c SplitConfig) replicates() int {
	if c.Replicates > 0 {
		return c.Replicates
	}
	return DefaultReplicates
}

// RunSplit executes a splitting job: Replicates independent fixed-effort
// cascades over the given levels, each unbiased for the target
// probability, folded into a WeightedEstimate whose N counts replicates
// and whose ESS is the effective number of equally-weighted replicate
// estimates. The result is bit-identical at every worker count.
func RunSplit(cfg SplitConfig, factory func() SplitState) (runner.WeightedEstimate, error) {
	for i := 1; i < len(cfg.Levels); i++ {
		if cfg.Levels[i] <= cfg.Levels[i-1] {
			return runner.WeightedEstimate{}, fmt.Errorf("rare: split levels not strictly ascending at %d", i)
		}
	}
	if factory == nil {
		return runner.WeightedEstimate{}, fmt.Errorf("rare: nil split state factory")
	}
	reps := cfg.replicates()
	ests := make([]float64, reps)
	err := runner.ForEach(cfg.Workers, reps, func(r int) error {
		ests[r] = splitReplicate(cfg, factory, r)
		return nil
	})
	if err != nil {
		return runner.WeightedEstimate{}, err
	}
	var sum, sum2 float64
	hits := 0
	for _, z := range ests { // index order: deterministic fold
		sum += z
		sum2 += z * z
		if z > 0 {
			hits++
		}
	}
	return runner.NewWeightedEstimate(reps, hits, sum, sum2), nil
}

// splitSeed derives the deterministic stream seed of particle i in stage
// of replicate rep (stage −1 is the resampling stream).
func splitSeed(seed int64, rep, stage, i int) uint64 {
	return runner.SampleSeed(int64(runner.SampleSeed(seed, rep, stage+1)), i, 0)
}

// splitReplicate runs one full cascade and returns its unbiased estimate.
func splitReplicate(cfg SplitConfig, factory func() SplitState, rep int) float64 {
	n := cfg.particles()
	cur := make([]SplitState, n)
	nxt := make([]SplitState, n)
	for i := range cur {
		cur[i] = factory()
		nxt[i] = factory()
	}
	crossed := make([]int, 0, n)
	var rng runner.SM64

	prod := 1.0
	stages := len(cfg.Levels) + 1 // pause stages plus the final drive
	for stage := 0; stage < stages; stage++ {
		final := stage == len(cfg.Levels)
		var level float64
		if !final {
			level = cfg.Levels[stage]
		}
		crossed = crossed[:0]
		hits := 0
		for i := 0; i < n; i++ {
			st := cur[i]
			rng.Reseed(splitSeed(cfg.Seed, rep, stage, i))
			if stage == 0 {
				st.Start(&rng)
			}
			if final {
				for !st.Done() {
					st.Advance(&rng)
				}
				if st.Hit() {
					hits++
				}
				continue
			}
			for {
				if st.Importance() >= level {
					crossed = append(crossed, i)
					break
				}
				if st.Done() {
					break
				}
				st.Advance(&rng)
			}
		}
		if final {
			return prod * float64(hits) / float64(n)
		}
		if len(crossed) == 0 {
			return 0
		}
		prod *= float64(len(crossed)) / float64(n)
		// Multinomial resampling from the entry states of the next level.
		rng.Reseed(splitSeed(cfg.Seed, rep, -1, stage))
		for i := 0; i < n; i++ {
			src := crossed[int(rng.Uint64()%uint64(len(crossed)))]
			nxt[i].CopyFrom(cur[src])
		}
		cur, nxt = nxt, cur
	}
	return prod // unreachable: the final stage returns
}

// EvenLevels returns m evenly spaced pause levels covering (0, top),
// excluding top itself: j·top/(m+1) for j = 1..m. m ≤ 0 yields no levels.
func EvenLevels(top float64, m int) []float64 {
	if m <= 0 || top <= 0 {
		return nil
	}
	out := make([]float64, m)
	for j := 1; j <= m; j++ {
		out[j-1] = top * float64(j) / float64(m+1)
	}
	return out
}

// marginSplitState is the settlement particle: the joint (ρ, µ) chain of
// Theorem 5 started from the stationary reach X∞ (capped at k+1, pooled
// tail — certain hits, exactly as in the DP and the tilted verdict), with
// importance µ + ǫ·t. The drift correction ǫ·t makes the importance a
// near-martingale: trajectories that keep the margin alive climb through
// the levels at rate ǫ while typical trajectories stall near their entry
// level. A hit has µ_k ≥ 0 and therefore terminal importance ≥ ǫ·k, so
// any pause schedule below ǫ·k is sound.
type marginSplitState struct {
	k          int
	th         charstring.Thresholds
	beta, eps  float64
	t, rho, mu int
}

func newMarginSplitState(p charstring.Params, k int) *marginSplitState {
	return &marginSplitState{k: k, th: p.Thresholds(), beta: p.Beta(), eps: p.Epsilon}
}

// MarginLevels returns the default pause schedule for the settlement
// particle: levels every ~2.5 importance units up to (not including) the
// hit-implied terminal importance ǫ·k.
func MarginLevels(p charstring.Params, k int) []float64 {
	top := p.Epsilon * float64(k)
	return EvenLevels(top, int(top/2.5))
}

func (st *marginSplitState) Start(rng *runner.SM64) {
	j, _ := drawStationaryReach(rng, st.beta, st.k)
	st.t, st.rho, st.mu = 0, j, j
}

func (st *marginSplitState) Advance(rng *runner.SM64) {
	st.rho, st.mu = margin.StepMu(st.rho, st.mu, st.th.Symbol(rng.Uint64()))
	st.t++
}

func (st *marginSplitState) Done() bool { return st.t >= st.k }

func (st *marginSplitState) Importance() float64 {
	return float64(st.mu) + st.eps*float64(st.t)
}

func (st *marginSplitState) Hit() bool { return st.t >= st.k && st.mu >= 0 }

func (st *marginSplitState) CopyFrom(src SplitState) {
	*st = *src.(*marginSplitState)
}

// deltaSplitState is the Δ-synchronous particle: a T-slot semi-synchronous
// string (slot s leader-conditioned) fed to the online Lemma 2 certificate
// scanner. Importance is the particle's best candidate-free progress
// through the reduced settlement window — the number of reduced window
// slots elapsed with no live certificate candidate, the natural "distance
// travelled toward unsettled" — promoted past the last pause level at
// completion whenever the trajectory hits (no certificate). The promotion
// keeps the cascade unbiased even for hit trajectories whose candidates
// survive, incomplete, to the very end.
type deltaSplitState struct {
	T, s, k int
	th      charstring.SemiSyncThresholds
	ss      *deltasync.SettledStream
	t       int
	decided bool
	best    float64 // running max of the candidate-free progress
}

func newDeltaSplitState(sp charstring.SemiSyncParams, delta, s, k, T int) (*deltaSplitState, error) {
	ss, err := deltasync.NewSettledStream(s, k, delta, T)
	if err != nil {
		return nil, err
	}
	return &deltaSplitState{T: T, s: s, k: k, th: sp.Thresholds(), ss: ss}, nil
}

// DeltaLevels returns the default pause schedule for the Δ-synchronous
// particle: quarters of the reduced window k (the terminal promotion sits
// at k+2, above every pause level).
func DeltaLevels(k int) []float64 {
	return EvenLevels(float64(k+1), 3)
}

func (st *deltaSplitState) Start(rng *runner.SM64) {
	st.ss.Reset()
	st.t = 0
	st.decided = false
	st.best = 0
}

func (st *deltaSplitState) Advance(rng *runner.SM64) {
	st.t++
	sym := st.th.Symbol(rng.Uint64())
	if st.t == st.s && sym == charstring.Empty {
		sym = charstring.UniqueHonest
	}
	st.decided = st.ss.Feed(sym)
	if ps := st.ss.WindowStart(); ps > 0 && st.ss.LiveCandidates() == 0 {
		if p := float64(min(st.ss.ReducedLen(), ps+st.k) - ps + 1); p > st.best {
			st.best = p
		}
	}
}

func (st *deltaSplitState) Done() bool { return st.decided || st.t >= st.T }

func (st *deltaSplitState) Importance() float64 {
	if st.Done() && st.Hit() {
		return float64(st.k + 2)
	}
	return st.best
}

func (st *deltaSplitState) Hit() bool {
	if st.decided {
		return true
	}
	if st.t < st.T {
		return false
	}
	settled, err := st.ss.Finish()
	if err != nil {
		// Slot s is leader-conditioned at sampling time, so the only
		// Finish error (an empty query slot) is unreachable.
		panic(fmt.Sprintf("rare: delta split finish failed: %v", err))
	}
	return !settled
}

func (st *deltaSplitState) CopyFrom(src SplitState) {
	o := src.(*deltaSplitState)
	st.T, st.s, st.k, st.th = o.T, o.s, o.k, o.th
	st.t, st.decided, st.best = o.t, o.decided, o.best
	st.ss.CopyFrom(o.ss)
}
