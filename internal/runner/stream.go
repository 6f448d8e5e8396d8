package runner

import "multihonest/internal/charstring"

// This file is the streaming foundation of the engine: a fused
// sample–judge loop that never materializes a charstring.String. A
// per-worker verdict consumes each sample online from a raw-uint64
// splitmix64 stream, so the steady-state loop performs zero allocations
// and a sample that decides early stops drawing symbols at all. The
// drivers (block.go, weighted.go) feed verdicts 64 symbols at a time; the
// symbol-at-a-time StreamVerdict below is the scalar reference each block
// verdict must agree with.
//
// # Determinism
//
// Sample i of batch b always draws from the splitmix64 stream seeded by
// SampleSeed(seed, b, i), regardless of which worker runs the batch and
// regardless of how many symbols *other* samples consumed before
// deciding. Early exit therefore cannot leak randomness between samples:
// the Estimate is bit-identical at every worker count, and also identical
// whether or not verdicts exercise their early-exit paths (the undrawn
// symbols of a decided sample are simply never looked at). Two runs agree
// exactly iff they share N, Seed and BatchSize.

// SM64 is a SplitMix64 generator: state advances by the golden-gamma
// increment and each output is the bijective avalanche finalizer of the new
// state. It is the raw-uint64 source of the streaming sampler — one add,
// two xor-multiplies and a shift per symbol, no interface and no escape to
// the heap.
type SM64 struct{ x uint64 }

// Reseed repositions the stream; the next Uint64 is a pure function of seed.
func (r *SM64) Reseed(seed uint64) { r.x = seed }

// Uint64 returns the next raw 64-bit draw.
func (r *SM64) Uint64() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SampleSeed derives the deterministic stream seed of sample i (0-based,
// within its batch) of batch b under the given job seed. Both coordinates
// pass through the splitmix64 finalizer so that neighbouring batches and
// sample indices land on decorrelated streams.
func SampleSeed(seed int64, batch, i int) uint64 {
	return splitmix64(splitmix64(uint64(seed)^splitmix64(uint64(batch))) + uint64(i))
}

// SymbolSampler draws the symbol of one slot (1-based) from the raw stream —
// the scalar form of a BlockSampler, which decodes a sample's stream into
// the symbols its block verdict must agree with. It must be a pure
// function of (rng stream position, slot) — conditioning hooks like
// "promote an empty slot s to uniquely honest" key off slot.
type SymbolSampler func(rng *SM64, slot int) charstring.Symbol

// StreamVerdict is the symbol-at-a-time counterpart of Verdict, driven as
// Reset, then Feed per symbol until either Feed reports the verdict is
// decided (no further symbols are read) or T symbols have been fed, then
// Finish. Every BlockVerdict is one; its Feed is the scalar scanner its
// FeedBlock must agree with.
//
// Implementations carry reusable scratch and are therefore NOT safe for
// concurrent use: the drivers give every worker its own instance. Feed
// may only return true when no continuation of the stream could change
// the verdict, so that early exit is unobservable in the Estimate.
type StreamVerdict interface {
	// Reset prepares the scratch for a fresh sample.
	Reset()
	// Feed consumes the next symbol and reports whether the verdict is
	// already decided (early exit).
	Feed(sym charstring.Symbol) (decided bool)
	// Finish returns the verdict for the fed prefix. After an early exit it
	// must return the decided value; otherwise exactly T symbols were fed.
	Finish() (bool, error)
}
