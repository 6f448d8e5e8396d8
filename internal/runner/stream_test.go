package runner

import (
	"errors"
	"sync/atomic"
	"testing"

	"multihonest/internal/charstring"
)

// thresholdBlocks is the test block source: 64 raw draws classified
// against the (ǫ, ph)-Bernoulli cuts.
func thresholdBlocks(p charstring.Params) BlockSampler {
	th := p.Thresholds()
	return func(rng *SM64, _ int, blk *Block) {
		rng.Fill(&blk.Raw)
		blk.AMask, blk.HMask = th.ClassifyBlock(&blk.Raw, &blk.Syms)
	}
}

// blockOf lifts a scalar StreamVerdict to a BlockVerdict by feeding each
// block's symbols through Feed, so it decides at the exact scalar index.
type blockOf struct{ StreamVerdict }

func (v blockOf) FeedBlock(blk *Block, n int) int {
	for i := 0; i < n; i++ {
		if v.Feed(blk.Syms[i]) {
			return i + 1
		}
	}
	return 0
}

// counting returns a constructor of block-driven countingStreams.
func counting(T int, earlyExit bool) func() blockOf {
	return func() blockOf { return blockOf{&countingStream{T: T, earlyExit: earlyExit}} }
}

// countingStream is a minimal StreamVerdict: the event is "more than a
// third of the slots are adversarial", with an optional early exit once
// the count can no longer change the verdict.
type countingStream struct {
	T, adv, t int
	earlyExit bool
}

func (v *countingStream) Reset() { v.adv, v.t = 0, 0 }

func (v *countingStream) Feed(sym charstring.Symbol) bool {
	v.t++
	if sym == charstring.Adversarial {
		v.adv++
	}
	if !v.earlyExit {
		return false
	}
	rem := v.T - v.t
	// Decided when even rem more (or zero more) adversarial slots cannot
	// move 3·adv across T.
	return 3*v.adv > v.T || 3*(v.adv+rem) <= v.T
}

func (v *countingStream) Finish() (bool, error) { return 3*v.adv > v.T, nil }

// TestRunStreamMatchesManualLoop pins the streaming sampling scheme: batch
// b sample i draws from the splitmix64 stream seeded by SampleSeed(seed,
// b, i), independent of every other sample.
func TestRunStreamMatchesManualLoop(t *testing.T) {
	p := charstring.MustParams(0.4, 0.1)
	const n, bs, T, seed = 2_500, 128, 40, int64(7)
	th := p.Thresholds()
	hits := 0
	for b := 0; b*bs < n; b++ {
		for i := b * bs; i < min((b+1)*bs, n); i++ {
			var rng SM64
			rng.Reseed(SampleSeed(seed, b, i-b*bs))
			adv := 0
			for j := 0; j < T; j++ {
				if th.Symbol(rng.Uint64()) == charstring.Adversarial {
					adv++
				}
			}
			if 3*adv > T {
				hits++
			}
		}
	}
	want := NewEstimate(hits, n)
	got, err := RunStreamBlocks(Config{N: n, Seed: seed, Workers: 6, BatchSize: bs}, T,
		thresholdBlocks(p), counting(T, false))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("RunStreamBlocks %v != manual loop %v", got, want)
	}
}

// TestRunStreamEarlyExitInvariance: because every sample owns its RNG
// stream, exercising the early-exit path cannot change the Estimate —
// the unread symbols of a decided sample are never observed.
func TestRunStreamEarlyExitInvariance(t *testing.T) {
	p := charstring.MustParams(0.2, 0.3)
	const T = 60
	full, err := RunStreamBlocks(Config{N: 8_000, Seed: 3, Workers: 4}, T,
		thresholdBlocks(p), counting(T, false))
	if err != nil {
		t.Fatal(err)
	}
	early, err := RunStreamBlocks(Config{N: 8_000, Seed: 3, Workers: 4}, T,
		thresholdBlocks(p), counting(T, true))
	if err != nil {
		t.Fatal(err)
	}
	if full != early {
		t.Fatalf("early exit changed the estimate: %v vs %v", early, full)
	}
}

// errStream fails on its nth Finish across all instances.
type errStream struct {
	calls *atomic.Int64
	at    int64
	err   error
}

func (v *errStream) Reset()                          {}
func (v *errStream) Feed(sym charstring.Symbol) bool { return true }
func (v *errStream) Finish() (bool, error) {
	if v.calls.Add(1) == v.at {
		return false, v.err
	}
	return false, nil
}

// TestRunStreamErrorPropagation: the first verdict error cancels the job
// and is surfaced; no estimate is fabricated.
func TestRunStreamErrorPropagation(t *testing.T) {
	p := charstring.MustParams(0.3, 0.2)
	sentinel := errors.New("boom")
	var calls atomic.Int64
	_, err := RunStreamBlocks(Config{N: 100_000, Seed: 9, Workers: 4}, 10,
		thresholdBlocks(p),
		func() blockOf { return blockOf{&errStream{calls: &calls, at: 300, err: sentinel}} })
	if !errors.Is(err, sentinel) {
		t.Fatalf("expected sentinel error, got %v", err)
	}
	if n := calls.Load(); n >= 100_000 {
		t.Errorf("error did not cancel remaining work: %d verdicts ran", n)
	}
}

// TestSampleSeedDecorrelated: neighbouring (seed, batch, i) coordinates
// give distinct stream seeds and distinct first draws.
func TestSampleSeedDecorrelated(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := int64(0); seed < 3; seed++ {
		for b := 0; b < 3; b++ {
			for i := 0; i < 3; i++ {
				var rng SM64
				rng.Reseed(SampleSeed(seed, b, i))
				v := rng.Uint64()
				if seen[v] {
					t.Fatalf("colliding first draw for seed=%d batch=%d i=%d", seed, b, i)
				}
				seen[v] = true
			}
		}
	}
}

// TestSM64KnownValues pins the splitmix64 stream against the reference
// values of the published algorithm (seed 1234567, first three outputs).
func TestSM64KnownValues(t *testing.T) {
	var rng SM64
	rng.Reseed(1234567)
	want := []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423}
	for i, w := range want {
		if got := rng.Uint64(); got != w {
			t.Fatalf("draw %d: got %d, want %d", i, got, w)
		}
	}
}
