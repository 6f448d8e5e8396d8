// Package mc is the Monte-Carlo experiment harness: seeded, reproducible
// estimation of the paper's stochastic events by sampling characteristic
// strings and applying the exact per-string verdicts from packages catalan,
// margin, cp and deltasync. Each experiment corresponds to an entry of the
// DESIGN.md experiment index (E1–E7) and feeds EXPERIMENTS.md.
//
// Every experiment exists in two equivalent forms. The production form is
// streaming: the exported experiment functions pair a block verdict
// (stream.go, block.go) with a block threshold sampler and delegate to
// runner.RunStreamBlocks — a fused sample–judge loop that generates 64
// symbols at a time, with zero steady-state allocations and early exit.
// The slice-at-a-time form (the runner.Verdict constructors below) is
// kept as the reference: equivalence tests pin each streaming verdict to
// agree with it on every string, and the runner-block-scalar-identity
// conformance entry pins every sample of a block run to it. For a fixed
// (seed, n) every Estimate is bit-identical at every worker count;
// workers = 0 uses all CPUs and workers = 1 is the serial path.
package mc

import (
	"fmt"

	"multihonest/internal/catalan"
	"multihonest/internal/charstring"
	"multihonest/internal/cp"
	"multihonest/internal/deltasync"
	"multihonest/internal/margin"
	"multihonest/internal/runner"
	"multihonest/internal/stats"
)

// Estimate is a Monte-Carlo frequency with its Wilson 95% interval; it is
// runner.Estimate re-exported so downstream code can stay on the mc API.
type Estimate = runner.Estimate

// NoUniquelyHonestCatalanVerdict reports the Bound 1 event on a sampled
// string: the k-slot window starting at slot s contains no uniquely honest
// Catalan slot of the whole string. It is the slice-based reference of
// the streaming verdict used by NoUniquelyHonestCatalan.
func NoUniquelyHonestCatalanVerdict(s, k int) runner.Verdict {
	return func(w charstring.String) (bool, error) {
		sc := catalan.Analyze(w)
		for c := s; c <= s-1+k; c++ {
			if sc.UniquelyHonestCatalan(c) {
				return false, nil
			}
		}
		return true, nil
	}
}

// NoUniquelyHonestCatalan estimates the Bound 1 event (experiment E1). The
// sampled string extends tail slots past the window so that right-Catalan
// status is effectively decided (the probability that the walk returns
// after the tail decays geometrically). workers = 0 uses all CPUs.
func NoUniquelyHonestCatalan(p charstring.Params, s, k, tail, n int, seed int64, workers int) Estimate {
	T := s - 1 + k + tail
	return mustRunBlocks(runner.Config{N: n, Seed: seed, Workers: workers, Name: "e1_no_uh_catalan"}, T,
		BlockBernoulliMaskSampler(p),
		func() *noUHCatalanStream { return newNoUHCatalanStream(s, k) })
}

// NoConsecutiveCatalanVerdict reports the Bound 2 event: the k-slot window
// starting at slot s contains no two consecutive Catalan slots.
func NoConsecutiveCatalanVerdict(s, k int) runner.Verdict {
	return func(w charstring.String) (bool, error) {
		sc := catalan.Analyze(w)
		for c := s; c <= s-2+k; c++ {
			if sc.ConsecutivePairAt(c) {
				return false, nil
			}
		}
		return true, nil
	}
}

// NoConsecutiveCatalan estimates the Bound 2 event on bivalent strings
// (experiment E2): a k-slot window with no two consecutive Catalan slots.
func NoConsecutiveCatalan(epsilon float64, s, k, tail, n int, seed int64, workers int) Estimate {
	p := charstring.MustParams(epsilon, 0)
	T := s - 1 + k + tail
	return mustRunBlocks(runner.Config{N: n, Seed: seed, Workers: workers, Name: "e2_no_consec_catalan"}, T,
		BlockBernoulliMaskSampler(p),
		func() *noConsecCatalanStream { return newNoConsecCatalanStream(s, k) })
}

// SettlementViolationVerdict reports the Table 1 event on a sampled string
// w = xy with |x| = m: the relative margin µ_x(y) is non-negative.
func SettlementViolationVerdict(m int) runner.Verdict {
	return func(w charstring.String) (bool, error) {
		return margin.RelativeMargin(w, m) >= 0, nil
	}
}

// SettlementViolation estimates Pr[µ_x(y) ≥ 0] for |x| = m, |y| = k — the
// Table 1 event with a finite prefix. It cross-validates the exact DP.
func SettlementViolation(p charstring.Params, m, k, n int, seed int64, workers int) Estimate {
	return mustRunBlocks(runner.Config{N: n, Seed: seed, Workers: workers, Name: "e3_settlement_violation"}, m+k,
		BlockBernoulliMaskSampler(p),
		func() *settlementStream { return newSettlementStream(m, m+k) })
}

// CPViolationVerdict reports the Theorem 8 event: the string has a UVP-free
// window of length ≥ k, so some fork may violate k-CP^slot.
func CPViolationVerdict(k int, consistentTies bool) runner.Verdict {
	return func(w charstring.String) (bool, error) {
		return cp.ViolationPossible(w, k, consistentTies), nil
	}
}

// CPViolationPossible estimates the Theorem 8 event over T-slot strings
// (experiment E5).
func CPViolationPossible(p charstring.Params, T, k, n int, seed int64, consistentTies bool, workers int) Estimate {
	return mustRunBlocks(runner.Config{N: n, Seed: seed, Workers: workers, Name: "e5_cp_violation"}, T,
		BlockBernoulliSampler(p),
		func() *cpStream { return newCPStream(k, consistentTies) })
}

// DeltaUnsettledVerdict reports the Theorem 7 event: slot s of a
// semi-synchronous execution lacks the Lemma 2 (k, Δ)-settlement
// certificate.
func DeltaUnsettledVerdict(s, k, delta int) runner.Verdict {
	return func(w charstring.String) (bool, error) {
		ok, err := deltasync.Settled(w, s, k, delta)
		return !ok, err
	}
}

// DeltaUnsettled estimates the Theorem 7 event (experiment E4). Sampling
// conditions on slot s having a leader via BlockConditionedSemiSyncSampler.
func DeltaUnsettled(sp charstring.SemiSyncParams, delta, s, k, tail, n int, seed int64, workers int) (Estimate, error) {
	// The certificate needs a window of k *reduced* (non-empty) slots plus
	// slack; at activity rate f that takes about k/f real slots.
	f := sp.ActiveRate()
	if f <= 0 {
		return Estimate{}, fmt.Errorf("mc: zero activity rate")
	}
	T := s + int(float64(2*k+tail)/f) + delta
	if _, err := newDeltaUnsettledStream(s, k, delta, T); err != nil {
		return Estimate{}, err
	}
	return runner.RunStreamBlocks(runner.Config{N: n, Seed: seed, Workers: workers, Name: "e4_delta_unsettled"}, T,
		BlockConditionedSemiSyncSampler(sp, s),
		func() *deltaUnsettledStream {
			v, err := newDeltaUnsettledStream(s, k, delta, T)
			if err != nil {
				panic(fmt.Sprintf("mc: delta verdict construction failed after validation: %v", err))
			}
			return v
		})
}

// Series sweeps a horizon list serially, returning one estimate per k.
func Series(ks []int, f func(k int) Estimate) []Estimate {
	out := make([]Estimate, len(ks))
	for i, k := range ks {
		out[i] = f(k)
	}
	return out
}

// SeriesParallel sweeps a horizon list on a worker pool (0 = all CPUs).
// Each horizon's estimate is computed exactly as Series would, so the two
// agree bit-for-bit; only wall-clock differs. Point the per-horizon
// experiments at workers = 1 when calling through SeriesParallel, otherwise
// the two parallelism levels compete for cores.
func SeriesParallel(ks []int, workers int, f func(k int) Estimate) []Estimate {
	out := make([]Estimate, len(ks))
	// The loop body cannot fail (f returns no error), so a non-nil ForEach
	// error is a programming bug in this package — surface it loudly
	// rather than silently discarding it.
	if err := runner.ForEach(workers, len(ks), func(i int) error {
		out[i] = f(ks[i])
		return nil
	}); err != nil {
		panic(fmt.Sprintf("mc: infallible series sweep failed: %v", err))
	}
	return out
}

// DecayRate fits an exponential decay to (k, estimate) pairs, ignoring
// zero-hit entries.
func DecayRate(ks []int, es []Estimate) (stats.FitResult, error) {
	xs := make([]float64, len(ks))
	ys := make([]float64, len(es))
	for i := range ks {
		xs[i] = float64(ks[i])
		ys[i] = es[i].P
	}
	return stats.FitExpDecay(xs, ys)
}
