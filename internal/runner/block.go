package runner

import (
	"fmt"

	"multihonest/internal/charstring"
)

// This file is the block-at-a-time core of the streaming engine — the
// drivers every Monte-Carlo job runs on: raw uint64s drawn 64 at a time
// from the per-sample splitmix64 stream into a stack buffer, classified
// into symbols and packed category masks in one branch-free pass
// (charstring.ClassifyBlock), and fed to verdicts a block at a time. A
// symbol-at-a-time loop would pay two per-symbol indirect calls — the
// SymbolSampler closure and the StreamVerdict.Feed dispatch — where this
// one pays one fill call and one FeedBlock call per 64 symbols.
//
// # Determinism under over-drawing
//
// A sample's stream position is a pure function of its draw count, and
// every sample reseeds from SampleSeed before its first draw. Filling a
// whole 64-draw block therefore consumes randomness that no other sample
// can ever observe: draws past the point where the verdict decides (or
// past T in a partial tail block) are simply discarded. Each sample thus
// sees exactly the symbols its SymbolSampler decodes from the same stream
// — the raw stream is the same (Fill equals 64 Uint64 calls), and
// ClassifyBlock is definitionally the per-draw Symbol map — so every
// sample's outcome equals its scalar verdict's on those symbols (the
// runner-block-scalar-identity conformance invariant checks this sample
// by sample).

// BlockSize is the number of symbols generated per block — one uint64 of
// per-category classification masks.
const BlockSize = charstring.BlockSize

// Block is the per-worker scratch of the block loop: 64 raw draws, their
// classified symbols, and the packed category membership masks (bit i
// describes Syms[i]). EMask is zero under synchronous laws.
type Block struct {
	Raw   [BlockSize]uint64
	Syms  [BlockSize]charstring.Symbol
	AMask uint64 // bit i ⇔ Syms[i] = A
	HMask uint64 // bit i ⇔ Syms[i] = h
	EMask uint64 // bit i ⇔ Syms[i] = ⊥ (semi-synchronous laws only)
}

// BlockSampler fills blk with the symbols of slots base+1 … base+BlockSize
// (base is always a multiple of BlockSize). It must draw exactly BlockSize
// raw uint64s from rng — partial consumption would shift the stream
// position of later blocks — and must populate Syms and every mask
// consistently. Conditioning hooks (e.g. "promote an empty slot s to h")
// patch the filled block in place.
type BlockSampler func(rng *SM64, base int, blk *Block)

// BlockVerdict is a StreamVerdict with a block path. The engine drives it
// as Reset, then FeedBlock per 64-symbol block until a block decides or T
// symbols have been consumed, then Finish.
type BlockVerdict interface {
	StreamVerdict
	// FeedBlock consumes the first n symbols of blk (1 ≤ n ≤ BlockSize)
	// and returns the 1-based index within the block of the symbol at
	// which the verdict decided, or 0 if it is undecided after all n.
	// Implementations that are wrapped by weighted accumulators (the
	// tilted verdicts of package rare) must return the exact index at
	// which the scalar Feed loop would have decided, so the consumed
	// symbol count — and with it the accumulated likelihood ratio — is
	// identical on both paths. Purely unweighted verdicts may defer the
	// decision to the end of the block when their decision predicate is
	// monotone over the block.
	FeedBlock(blk *Block, n int) (decidedAt int)
}

// WeightedBlockVerdict is the weighted counterpart of BlockVerdict, driven
// as Begin, FeedBlock per block, Finish.
type WeightedBlockVerdict interface {
	WeightedStreamVerdict
	FeedBlock(blk *Block, n int) (decidedAt int)
}

// BlockMask returns the mask of the low n bits (n clamped to [0, 64]) —
// the membership mask of a partial block's first n symbols.
func BlockMask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// Fill draws the next BlockSize raw uint64s into dst — exactly the
// sequence BlockSize successive Uint64 calls would return. The state walks
// through a local so the whole block generates without touching memory
// beyond the destination writes.
func (r *SM64) Fill(dst *[BlockSize]uint64) {
	x := r.x
	for i := range dst {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		dst[i] = z ^ (z >> 31)
	}
	r.x = x
}

// RunStreamBlocks executes a Monte-Carlo job on the block-at-a-time core:
// cfg.N samples of length (at most) T, generated 64 symbols at a time by
// fill and judged block-at-a-time by per-worker verdicts from newVerdict.
// The returned Estimate is bit-identical for every worker count (see the
// package comment); the first verdict error cancels the remaining
// batches and is returned.
func RunStreamBlocks[V BlockVerdict](cfg Config, T int, fill BlockSampler, newVerdict func() V) (Estimate, error) {
	if fill == nil || newVerdict == nil {
		return Estimate{}, fmt.Errorf("runner: nil sampler or verdict constructor")
	}
	if T <= 0 {
		return Estimate{}, fmt.Errorf("runner: non-positive sample length %d", T)
	}
	s, err := runBatches(cfg, func() judge {
		v := newVerdict()
		// One Block per worker, reused by every sample: it is passed to
		// the fill indirection and would escape a per-sample scope, which
		// would break the zero-allocation steady state.
		blk := new(Block)
		return func(rng *SM64) (bool, float64, error) {
			v.Reset()
			for base := 0; base < T; base += BlockSize {
				fill(rng, base, blk)
				n := min(BlockSize, T-base)
				if v.FeedBlock(blk, n) != 0 {
					break
				}
			}
			hit, err := v.Finish()
			return hit, 1, err
		}
	})
	if err != nil {
		return Estimate{}, err
	}
	return NewEstimate(s.hits, max(cfg.N, 0)), nil
}

// RunStreamWeightedBlocks is the weighted twin of RunStreamBlocks, driving
// WeightedBlockVerdicts on the same batch-ordered fold (runBatches), so
// the WeightedEstimate — SumW and SumW2 included — is bit-identical at
// every worker count. Each sample's (hit, weight) equals its scalar
// verdict's on the same stream provided FeedBlock reports the exact
// scalar decision index (see BlockVerdict). A verdict returning a
// negative, NaN or infinite weight is reported as an error — a likelihood
// ratio can never be one, so it indicates a broken proposal.
func RunStreamWeightedBlocks[V WeightedBlockVerdict](cfg Config, T int, fill BlockSampler, newVerdict func() V) (WeightedEstimate, error) {
	if fill == nil || newVerdict == nil {
		return WeightedEstimate{}, fmt.Errorf("runner: nil sampler or verdict constructor")
	}
	if T <= 0 {
		return WeightedEstimate{}, fmt.Errorf("runner: non-positive sample length %d", T)
	}
	s, err := runBatches(cfg, func() judge {
		v := newVerdict()
		blk := new(Block)
		return func(rng *SM64) (bool, float64, error) {
			v.Begin(rng)
			for base := 0; base < T; base += BlockSize {
				fill(rng, base, blk)
				n := min(BlockSize, T-base)
				if v.FeedBlock(blk, n) != 0 {
					break
				}
			}
			return v.Finish()
		}
	})
	return weightedEstimate(cfg, s, err)
}
