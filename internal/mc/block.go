package mc

import (
	"fmt"

	"multihonest/internal/charstring"
	"multihonest/internal/margin"
	"multihonest/internal/runner"
)

// This file is the block-at-a-time layer of the streaming verdicts: the
// production experiment functions in mc.go run on runner.RunStreamBlocks
// with the samplers and FeedBlock implementations below. Every FeedBlock
// is exactly equivalent to feeding the block's symbols through Feed one at
// a time — the runner-block-scalar-identity conformance invariant pins
// every sample's block outcome to the scalar one — but consumes the packed
// category masks where it can: the E3 settlement prefix advances the reach
// via margin.StepRhoBits (eight byte-table lookups per 64 symbols), the
// E1/E2 Catalan scanners ride catalan.Stream.FeedBlock's branch-free walk,
// and E4/E5 devirtualize into direct concrete-type calls.
//
// The verdicts wrapped by the tilted weighted estimators (E3, E4, E5)
// return the exact scalar decision index from FeedBlock, so the consumed
// symbol count — the likelihood-ratio accumulator's domain — is identical
// on both paths. E1/E2 are never weighted and their decision predicates
// are monotone past the window (no pushes can occur there, so pending
// candidates and adjacent pairs only ever disappear); they check once per
// block boundary, which leaves the verdict value unchanged.

// BlockBernoulliSampler is the block form of StreamBernoulliSampler: 64
// raw splitmix64 draws classified against the (ǫ, ph)-Bernoulli cuts in
// one branch-free pass.
func BlockBernoulliSampler(p charstring.Params) runner.BlockSampler {
	th := p.Thresholds()
	return func(rng *runner.SM64, _ int, blk *runner.Block) {
		rng.Fill(&blk.Raw)
		blk.AMask, blk.HMask = th.ClassifyBlock(&blk.Raw, &blk.Syms)
		blk.EMask = 0
	}
}

// BlockConditionedSemiSyncSampler is the block form of
// StreamConditionedSemiSyncSampler: semi-synchronous threshold
// classification with an empty slot s promoted to uniquely honest (the
// promotion patches the filled block's symbol and masks in place).
func BlockConditionedSemiSyncSampler(sp charstring.SemiSyncParams, s int) runner.BlockSampler {
	th := sp.Thresholds()
	return func(rng *runner.SM64, base int, blk *runner.Block) {
		rng.Fill(&blk.Raw)
		blk.AMask, blk.HMask, blk.EMask = th.ClassifyBlock(&blk.Raw, &blk.Syms)
		if i := s - base - 1; i >= 0 && i < runner.BlockSize && blk.Syms[i] == charstring.Empty {
			blk.Syms[i] = charstring.UniqueHonest
			blk.EMask &^= 1 << uint(i)
			blk.HMask |= 1 << uint(i)
		}
	}
}

// BlockBernoulliMaskSampler is BlockBernoulliSampler without the symbol
// store: it fills only the category masks (Syms keeps whatever the
// previous block left there). Pair it exclusively with verdicts that never
// read Block.Syms — the settlement walk consumes AMask/HMask only.
func BlockBernoulliMaskSampler(p charstring.Params) runner.BlockSampler {
	th := p.Thresholds()
	return func(rng *runner.SM64, _ int, blk *runner.Block) {
		rng.Fill(&blk.Raw)
		blk.AMask, blk.HMask = th.ClassifyBlockMasks(&blk.Raw)
		blk.EMask = 0
	}
}

// mustRunBlocks executes a block job whose verdict cannot fail; any error
// therefore indicates a programming bug in this package and panics.
func mustRunBlocks[V runner.BlockVerdict](cfg runner.Config, T int, fill runner.BlockSampler, newVerdict func() V) Estimate {
	e, err := runner.RunStreamBlocks(cfg, T, fill, newVerdict)
	if err != nil {
		panic(fmt.Sprintf("mc: infallible experiment failed: %v", err))
	}
	return e
}

// windowMask returns the mask of block positions (base is the slot count
// already consumed; position i is slot base+1+i) that land inside the
// 1-based slot window [winLo, winHi].
func windowMask(base, winLo, winHi int) uint64 {
	return runner.BlockMask(winHi-base) &^ runner.BlockMask(winLo-1-base)
}

// FeedBlock implements runner.BlockVerdict: the filter "uniquely honest
// and inside the window" devirtualizes into a candidate mask (HMask
// intersected with the window positions) for catalan's byte-table walk,
// and the decision predicate — past the window with no pending candidate —
// is checked at the block boundary (no candidate can be pushed past the
// window, so the predicate is monotone within the rest of the block and
// the verdict value is unchanged).
func (v *noUHCatalanStream) FeedBlock(blk *runner.Block, n int) int {
	wm := windowMask(v.st.Len(), v.winLo, v.winHi)
	v.st.FeedBlockCand(blk.AMask, blk.HMask&wm, blk.HMask, n)
	if v.st.Len() > v.winHi && v.st.PendingCount() == 0 {
		v.decided = true
		return n
	}
	return 0
}

// FeedBlock implements runner.BlockVerdict; candidates are any honest
// window slot (the complement of AMask), and the same block-boundary
// decision argument as noUHCatalanStream applies (adjacent candidate
// pairs can only be destroyed past the window) — the O(pending) pair scan
// runs once per block instead of once per symbol.
func (v *noConsecCatalanStream) FeedBlock(blk *runner.Block, n int) int {
	wm := windowMask(v.st.Len(), v.winLo, v.winHi)
	v.st.FeedBlockCand(blk.AMask, ^blk.AMask&wm, blk.HMask, n)
	if v.st.Len() > v.winHi && !v.hasPair() {
		v.decided = true
		return n
	}
	return 0
}

// FeedBlock implements runner.BlockVerdict. The prefix phase (t ≤ m) has
// no early exit and only the reach evolves, so it collapses to one
// margin.StepRhoBits call over the block's walk bits; the joint phase runs
// the (ρ, µ) recurrence bit-at-a-time with the exact per-symbol early
// exits of the scalar path — the tilted wrapper depends on the decision
// index matching.
func (v *settlementStream) FeedBlock(blk *runner.Block, n int) int {
	i := 0
	if v.t < v.m {
		// Blocks are aligned (v.t is a multiple of 64 here), so the
		// prefix occupies bits 0 … pre−1 of the masks.
		pre := min(n, v.m-v.t)
		v.st.Rho = margin.StepRhoBits(v.st.Rho, blk.AMask, pre)
		v.t += pre
		if v.t == v.m {
			v.st.Mu = v.st.Rho // µ_x(ε) = ρ(x)
		}
		if pre == n {
			return 0
		}
		i = pre
	}
	rho, mu, t := v.st.Rho, v.st.Mu, v.t
	am, hm := blk.AMask>>uint(i), blk.HMask>>uint(i)
	for ; i < n; i++ {
		if am&1 != 0 {
			rho++
			mu++
		} else {
			// Honest step of recurrence (14): µ sticks at 0 unless
			// ρ = 0 and the symbol is uniquely honest.
			if mu != 0 || (rho == 0 && hm&1 != 0) {
				mu--
			}
			if rho > 0 {
				rho--
			}
		}
		am >>= 1
		hm >>= 1
		t++
		rem := v.T - t
		if mu-rem >= 0 {
			v.st.Rho, v.st.Mu, v.t = rho, mu, t
			v.decided, v.verdict = true, true
			return i + 1
		}
		if mu+rem < 0 {
			v.st.Rho, v.st.Mu, v.t = rho, mu, t
			v.decided, v.verdict = true, false
			return i + 1
		}
	}
	v.st.Rho, v.st.Mu, v.t = rho, mu, t
	return 0
}

// FeedBlock implements runner.BlockVerdict: the scalar loop devirtualized
// into direct cp.WindowStream calls, with the exact per-symbol decision
// point (CPTilted wraps this verdict).
func (v *cpStream) FeedBlock(blk *runner.Block, n int) int {
	for i := 0; i < n; i++ {
		v.ws.Feed(blk.Syms[i])
		if v.ws.Certified() >= v.k {
			v.decided = true
			return i + 1
		}
	}
	return 0
}

// FeedBlock implements runner.BlockVerdict: direct deltasync calls with
// the exact per-symbol decision point (DeltaUnsettledTilted wraps this
// verdict).
func (v *deltaUnsettledStream) FeedBlock(blk *runner.Block, n int) int {
	for i := 0; i < n; i++ {
		if v.ss.Feed(blk.Syms[i]) {
			return i + 1
		}
	}
	return 0
}
