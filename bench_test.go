// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each benchmark
// prints the rows it reproduces once per run (guarded by sync.Once) so
// that `go test -bench=. -benchmem` doubles as the reproduction script;
// cmd/table1, cmd/bounds and cmd/simulate produce the full-size artifacts.
package multihonest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"multihonest/internal/adversary"
	"multihonest/internal/chainsim"
	"multihonest/internal/charstring"
	"multihonest/internal/core"
	"multihonest/internal/deltasync"
	"multihonest/internal/faultfs"
	"multihonest/internal/gf"
	"multihonest/internal/leader"
	"multihonest/internal/mc"
	"multihonest/internal/oracle"
	"multihonest/internal/rare"
	"multihonest/internal/runner"
	"multihonest/internal/settlement"
	"multihonest/internal/telemetry"
)

var printOnce sync.Map

func once(b *testing.B, key string, f func()) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkTable1 regenerates a representative block of Table 1 (α columns
// at two honest fractions, k ≤ 300 for bench-speed; cmd/table1 emits the
// full table). One iteration computes a full DP sweep per (α, frac).
func BenchmarkTable1(b *testing.B) {
	alphas := []float64{0.10, 0.30, 0.49}
	fracs := []float64{1.0, 0.01}
	horizons := []int{100, 300, 500}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			var tbl *settlement.Table
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl, err = settlement.ComputeTable1(alphas, fracs, horizons, bc.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			once(b, "table1", func() {
				fmt.Printf("\n[T1] Table 1 (subset; see cmd/table1 for all 6×6×5 cells)\n%s\n", tbl.Format())
			})
		})
	}
}

// BenchmarkMCEngine is the benchstat pair for the acceptance criterion of
// the runner subsystem: the same experiment (Bound 1 event, equal sample
// count, equal seed) on the serial path (workers = 1) and on the full
// worker pool. The estimates are asserted bit-identical; only wall-clock
// may differ. Compare with
//
//	go test -bench 'MCEngine' -benchtime 3x
func BenchmarkMCEngine(b *testing.B) {
	p := charstring.MustParams(0.3, 0.3)
	const s, k, tail, n, seed = 40, 160, 150, 8000, int64(7)
	ref := mc.NoUniquelyHonestCatalan(p, s, k, tail, n, seed, 1)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				est := mc.NoUniquelyHonestCatalan(p, s, k, tail, n, seed, bc.workers)
				if est != ref {
					b.Fatalf("workers=%d changed the estimate: %v != %v", bc.workers, est, ref)
				}
			}
		})
	}
}

// benchMCPair drives the same event, sample count and seed through one of
// two engine modes, so the two benchmark functions below form a benchstat
// pair:
//
//   - "stream": the production path (the exported mc experiment functions,
//     which run the block-generated fused loop since PR 7)
//   - "block": the explicit block loop (runner.RunStreamBlocks + the Block*
//     samplers) — bit-identical to "stream", so the pair isolates the
//     cost of the experiment wrappers
//
// All run workers = 1 so the pair isolates the per-sample cost of the
// core — parallel scaling is BenchmarkMCEngine's job.
func benchMCPair(b *testing.B, mode string) {
	p := charstring.MustParams(0.3, 0.3)
	sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	mustEst := func(b *testing.B, e mc.Estimate, err error) mc.Estimate {
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	runBlocks := func(b *testing.B, n, T int, block runner.BlockSampler, mk func() runner.StreamVerdict) mc.Estimate {
		e, err := runner.RunStreamBlocks(runner.Config{N: n, Seed: 7, Workers: 1}, T, block,
			func() runner.BlockVerdict { return mk().(runner.BlockVerdict) })
		return mustEst(b, e, err)
	}
	cases := []struct {
		name string
		run  func(b *testing.B) mc.Estimate
	}{
		{"E1-NoUHCatalan", func(b *testing.B) mc.Estimate {
			const s, k, tail, n = 40, 160, 150, 4000
			const T = s - 1 + k + tail
			if mode == "stream" {
				return mc.NoUniquelyHonestCatalan(p, s, k, tail, n, 7, 1)
			}
			return runBlocks(b, n, T, mc.BlockBernoulliMaskSampler(p),
				func() runner.StreamVerdict { return mc.NewNoUHCatalanStreamVerdict(s, k) })
		}},
		{"E3-Settlement", func(b *testing.B) mc.Estimate {
			const m, k, n = 600, 100, 4000
			const T = m + k
			if mode == "stream" {
				return mc.SettlementViolation(p, m, k, n, 7, 1)
			}
			return runBlocks(b, n, T, mc.BlockBernoulliMaskSampler(p),
				func() runner.StreamVerdict { return mc.NewSettlementStreamVerdict(m, T) })
		}},
		{"E5-CPViolation", func(b *testing.B) mc.Estimate {
			const T, k, n = 400, 40, 2000
			if mode == "stream" {
				return mc.CPViolationPossible(p, T, k, n, 7, false, 1)
			}
			return runBlocks(b, n, T, mc.BlockBernoulliSampler(p),
				func() runner.StreamVerdict { return mc.NewCPStreamVerdict(k, false) })
		}},
		{"E4-DeltaUnsettled", func(b *testing.B) mc.Estimate {
			const s, k, tail, delta, n = 8, 60, 150, 3, 1000
			T := s + int(float64(2*k+tail)/sp.ActiveRate()) + delta
			if mode == "stream" {
				e, err := mc.DeltaUnsettled(sp, delta, s, k, tail, n, 7, 1)
				return mustEst(b, e, err)
			}
			return runBlocks(b, n, T, mc.BlockConditionedSemiSyncSampler(sp, s),
				func() runner.StreamVerdict {
					v, err := mc.NewDeltaUnsettledStreamVerdict(s, k, delta, T)
					if err != nil {
						b.Fatal(err)
					}
					return v
				})
		}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var est mc.Estimate
			for i := 0; i < b.N; i++ {
				est = bc.run(b)
			}
			b.ReportMetric(float64(est.N)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkRareTilted: the margin-conditioned importance-sampling engine
// at a fixed deep point (α = 0.15, k = 110, p ≈ 5e-11 — unreachable for
// the plain engines above, which would need ~2e10 samples). One iteration
// is a fixed 200k-sample weighted job; samples/s measures the fused
// weighted loop's throughput.
func BenchmarkRareTilted(b *testing.B) {
	p := charstring.MustParams(1-2*0.15, 0.45)
	const k, n = 110, 200_000
	b.ReportAllocs()
	var r rare.Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = rare.SettlementTilted(p, k, rare.Options{Theta: 0.55, N: n, MaxRounds: 1, Seed: 7, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.N)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	once(b, "rare-tilt", func() {
		fmt.Printf("# rare tilted: %v at α=0.15 k=%d (DP ≈ 5.2e-11)\n", r.WeightedEstimate, k)
	})
}

// BenchmarkRareSplit: the fixed-effort splitting engine at the same deep
// point; one iteration is a fixed 64-replicate cascade.
func BenchmarkRareSplit(b *testing.B) {
	p := charstring.MustParams(1-2*0.15, 0.45)
	const k = 110
	b.ReportAllocs()
	var r rare.Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = rare.SettlementSplit(p, k, rare.SplitConfig{Seed: 7, Particles: 512, Replicates: 64, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Trajectories)*float64(b.N)/b.Elapsed().Seconds(), "trajectories/s")
	once(b, "rare-split", func() {
		fmt.Printf("# rare split: %v at α=0.15 k=%d (DP ≈ 5.2e-11)\n", r.WeightedEstimate, k)
	})
}

// BenchmarkMCStream: the fused streaming engine (production path — the
// block-generated loop since PR 7; the stable name the committed
// baselines and the CI perf gate track).
func BenchmarkMCStream(b *testing.B) { benchMCPair(b, "stream") }

// BenchmarkMCStreamBlock: the explicit block loop, bit-identical to
// BenchmarkMCStream.
func BenchmarkMCStreamBlock(b *testing.B) { benchMCPair(b, "block") }

// BenchmarkDPCapped/BenchmarkDPNaive/BenchmarkDPPruned: ablations of the
// settlement DP engine (DESIGN.md §6). Capped runs the banded lattice sweep
// (the production path); Naive keeps the paper's full-size grid scanned in
// full every step; Pruned adds τ-thresholding with the dropped-mass ledger
// (certified bracket width ≤ τ × cells, negligible at τ = 1e-30).
func BenchmarkDPCapped(b *testing.B) {
	p := charstring.MustParams(1-2*0.30, 0.5*(1-0.30))
	c := settlement.New(p)
	for _, k := range []int{100, 500} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.ViolationProbability(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDPNaive(b *testing.B) {
	p := charstring.MustParams(1-2*0.30, 0.5*(1-0.30))
	c := settlement.New(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.ViolationProbabilityNaive(100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPPruned(b *testing.B) {
	p := charstring.MustParams(1-2*0.30, 0.5*(1-0.30))
	c := settlement.New(p)
	for _, k := range []int{100, 500} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var width float64
			for i := 0; i < b.N; i++ {
				lower, upper, err := c.ViolationCurveBracket(k, 1e-30)
				if err != nil {
					b.Fatal(err)
				}
				width = upper[k-1] - lower[k-1]
			}
			b.ReportMetric(width, "bracket-width")
		})
	}
}

// BenchmarkCurveColdExtend is the compute rung under the oracle's cold
// misses: back-to-back cold builds of an exact curve to horizon k through
// the capacity ladder, each released once built, exactly as the oracle
// rests an entry. One untimed build first fills the grid pool, so B/op is
// the steady state of a churning cache: readouts and interval buffers,
// not the O(cap²) grids. The builds run on one P: sync.Pool offers a
// freed grid first to the P that freed it, so a goroutine migrating
// between Ps would allocate a second set of grids once, and a -benchtime
// 1x run would archive that instead of the steady state.
func BenchmarkCurveColdExtend(b *testing.B) {
	c := settlement.New(charstring.MustParams(1-2*0.30, 0.5*(1-0.30)))
	build := func(b *testing.B, k int) {
		cv := c.Curve(0)
		if err := cv.Extend(k); err != nil {
			b.Fatal(err)
		}
		cv.Release()
	}
	for _, k := range []int{50, 200} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			build(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build(b, k)
			}
		})
	}
}

// BenchmarkUpperCurveIncremental: the fixed-geometry upper-bound curve
// extended in doublings (the ConfirmationDepth access pattern) versus
// recomputed from scratch at every doubling (the pre-lattice behaviour).
func BenchmarkUpperCurveIncremental(b *testing.B) {
	p := charstring.MustParams(1-2*0.25, 0.3)
	c := settlement.New(p)
	const cap = 128
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cv := c.UpperCurve(cap)
			for span := 256; span <= 2048; span *= 2 {
				if err := cv.Extend(span); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for span := 256; span <= 2048; span *= 2 {
				if _, err := c.ViolationCurveUpper(span, cap); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFigBound1 regenerates experiment E1: the Bound 1 generating-
// function tail against Monte-Carlo ground truth across k.
func BenchmarkFigBound1(b *testing.B) {
	const eps, qh = 0.3, 0.3
	var rows []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd, err := gf.NewBound1(eps, qh, 241)
		if err != nil {
			b.Fatal(err)
		}
		rows = rows[:0]
		p := charstring.MustParams(eps, qh)
		for _, k := range []int{40, 80, 160, 240} {
			tail, err := bd.Tail(k)
			if err != nil {
				b.Fatal(err)
			}
			est := mc.NoUniquelyHonestCatalan(p, 40, k, 150, 4000, int64(k), 0)
			rows = append(rows, fmt.Sprintf("k=%-4d GF tail %.4e   MC %v", k, tail, est))
		}
	}
	once(b, "bound1", func() {
		fmt.Printf("\n[E1] Bound 1 (ǫ=%.1f qh=%.1f): Pr[no uniquely honest Catalan slot in k-window]\n", eps, qh)
		for _, r := range rows {
			fmt.Println("  " + r)
		}
	})
}

// BenchmarkFigBound2 regenerates experiment E2: Bound 2 on bivalent
// strings (ph = 0, consistent ties).
func BenchmarkFigBound2(b *testing.B) {
	const eps = 0.5
	var rows []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd, err := gf.NewBound2(eps, 361)
		if err != nil {
			b.Fatal(err)
		}
		rows = rows[:0]
		for _, k := range []int{60, 120, 240, 360} {
			tail, err := bd.Tail(k)
			if err != nil {
				b.Fatal(err)
			}
			est := mc.NoConsecutiveCatalan(eps, 40, k, 150, 4000, int64(k), 0)
			rows = append(rows, fmt.Sprintf("k=%-4d GF tail %.4e   MC %v", k, tail, est))
		}
	}
	once(b, "bound2", func() {
		fmt.Printf("\n[E2] Bound 2 (ǫ=%.1f, ph=0): Pr[no consecutive Catalan pair in k-window]\n", eps)
		for _, r := range rows {
			fmt.Println("  " + r)
		}
	})
}

// BenchmarkFigSettlementDecay regenerates experiment E3: the e^{−Θ(k)}
// decay in the ph < pA regime unreachable by prior analyses.
func BenchmarkFigSettlementDecay(b *testing.B) {
	var rows []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, ph := range []float64{0.05, 0.10} {
			a, err := core.New(0.30, ph)
			if err != nil {
				b.Fatal(err)
			}
			curve, err := a.SettlementCurve(400)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("ph=%.2f (< pA=0.30): k=100 %.3e  k=200 %.3e  k=400 %.3e",
				ph, curve[99], curve[199], curve[399]))
		}
	}
	once(b, "decay", func() {
		fmt.Println("\n[E3] settlement decay with ph < pA (α=0.30)")
		for _, r := range rows {
			fmt.Println("  " + r)
		}
	})
}

// BenchmarkFigDeltaSweep regenerates experiment E4: Theorem 7's
// Δ-synchronous sweep.
func BenchmarkFigDeltaSweep(b *testing.B) {
	sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	var rows []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, delta := range []int{0, 2, 5, 10} {
			eps := deltasync.MaxEpsilon(sp, delta)
			est, err := mc.DeltaUnsettled(sp, delta, 8, 60, 150, 3000, int64(delta), 0)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("Δ=%-3d max ǫ %+ .3f   MC unsettled %v", delta, eps, est))
		}
	}
	once(b, "delta", func() {
		fmt.Println("\n[E4] Δ-synchronous settlement (f=0.2, k=60)")
		for _, r := range rows {
			fmt.Println("  " + r)
		}
	})
}

// BenchmarkFigCPViolation regenerates experiment E5: Theorem 8's
// common-prefix exposure across k and tie-breaking models.
func BenchmarkFigCPViolation(b *testing.B) {
	p := charstring.MustParams(0.4, 0.3)
	bivalent := charstring.MustParams(0.4, 0)
	var rows []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, k := range []int{20, 40, 80} {
			adv := mc.CPViolationPossible(p, 400, k, 2000, int64(k), false, 0)
			con := mc.CPViolationPossible(bivalent, 400, k, 2000, int64(k), true, 0)
			rows = append(rows, fmt.Sprintf("k=%-3d adversarial ties (ph=.3): %v   consistent ties (ph=0): %v", k, adv, con))
		}
	}
	once(b, "cp", func() {
		fmt.Println("\n[E5] k-CP^slot exposure over T=400 slots (ǫ=0.4)")
		for _, r := range rows {
			fmt.Println("  " + r)
		}
	})
}

// BenchmarkFigThresholds regenerates experiment E6: the introduction's
// threshold comparison — where each prior analysis applies and what the
// exact error is there.
func BenchmarkFigThresholds(b *testing.B) {
	type pt struct{ alpha, ph float64 }
	pts := []pt{{0.20, 0.75}, {0.30, 0.40}, {0.30, 0.10}, {0.45, 0.05}}
	var rows []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, q := range pts {
			a, err := core.New(q.alpha, q.ph)
			if err != nil {
				b.Fatal(err)
			}
			r := a.Regime()
			p200, err := a.SettlementFailure(200)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("α=%.2f ph=%.2f: Praos %-5v Sleepy %-5v this-paper %-5v   err@k=200 %.3e",
				q.alpha, q.ph, r.PraosGenesis, r.SleepySnow, r.ThisPaper, p200))
		}
	}
	once(b, "thresholds", func() {
		fmt.Println("\n[E6] threshold comparison (which analysis covers the point; exact error)")
		for _, r := range rows {
			fmt.Println("  " + r)
		}
	})
}

// BenchmarkProtocolSim regenerates experiment E7: the executable protocol
// under the margin-optimal attacker versus the DP prediction.
func BenchmarkProtocolSim(b *testing.B) {
	p := charstring.MustParams(1-2*0.30, 0.20)
	const s, k, runs = 4, 40, 150
	var emp, exact float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wins := 0
		for run := 0; run < runs; run++ {
			rng := rand.New(rand.NewSource(int64(run)))
			sched := leader.BernoulliSchedule(p, s-1+k, rng)
			strat := chainsim.NewMarginStrategy()
			sim, err := chainsim.NewSim(chainsim.Config{Schedule: sched, Rule: chainsim.AdversarialTies, Strategy: strat, Seed: int64(run)})
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.Run(nil); err != nil {
				b.Fatal(err)
			}
			if err := strat.Err(); err != nil {
				b.Fatal(err)
			}
			ok, err := strat.ViolationPresentable(sim, s)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				wins++
			}
		}
		emp = float64(wins) / runs
	}
	curve, err := settlement.New(p).ViolationCurveFinitePrefix(s-1, k)
	if err != nil {
		b.Fatal(err)
	}
	exact = curve[k-1]
	once(b, "protocol", func() {
		fmt.Printf("\n[E7] protocol-level margin attacker (α=0.30 ph=0.20 s=%d k=%d): empirical %.4f vs DP %.4f\n",
			s, k, emp, exact)
	})
}

// BenchmarkAStarCanonical measures the optimal online adversary itself
// (Figure 4 / Theorem 6).
func BenchmarkAStarCanonical(b *testing.B) {
	w := charstring.MustParams(0.1, 0.3).Sample(rand.New(rand.NewSource(1)), 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := adversary.Build(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfirmationDepth measures the planning query end to end.
func BenchmarkConfirmationDepth(b *testing.B) {
	a, err := core.New(0.25, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.ConfirmationDepth(1e-6, 600); err != nil {
			b.Fatal(err)
		}
	}
}

// oracleBenchKeys is the serve-benchmark key universe: the Table-1 (α,
// frac) grid with a fixed horizon per key. It mirrors serveBenchKeys in
// internal/oracle, where TestOracleServeEquivalence pins every answer of
// this exact mix byte-identical to the uncached core.Analyzer path.
func oracleBenchKeys() []struct {
	alpha, ph float64
	k         int
} {
	alphas := []float64{0.10, 0.20, 0.25, 0.30, 0.40, 0.49}
	fracs := []float64{1.0, 0.9, 0.5, 0.25, 0.1, 0.01}
	keys := make([]struct {
		alpha, ph float64
		k         int
	}, 0, len(alphas)*len(fracs))
	for i, frac := range fracs {
		for j, alpha := range alphas {
			keys = append(keys, struct {
				alpha, ph float64
				k         int
			}{alpha: alpha, ph: frac * (1 - alpha), k: 40 + 20*((i*len(alphas)+j)%8)})
		}
	}
	return keys
}

// oracleBenchStream draws the zipfian hot-key query sequence shared by the
// serve and cold benchmarks (skew 1.4: a handful of hot parameter points
// take most of the traffic, the oracle's intended regime).
func oracleBenchStream(n int) []struct {
	alpha, ph float64
	k         int
} {
	keys := oracleBenchKeys()
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(keys)-1))
	stream := make([]struct {
		alpha, ph float64
		k         int
	}, n)
	for i := range stream {
		stream[i] = keys[zipf.Uint64()]
	}
	return stream
}

// BenchmarkOracleServe measures the oracle on a hot zipfian key mix: each
// parameter point cold-builds once, then every further query is a cache
// read (or an incremental extension). The qps metric is the acceptance
// headline against BenchmarkOracleCold, which answers the identical stream
// with a fresh DP build per query.
func BenchmarkOracleServe(b *testing.B) {
	stream := oracleBenchStream(4096)
	ctx := context.Background()
	b.Run("serial", func(b *testing.B) {
		o := oracle.New(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := stream[i%len(stream)]
			if _, err := o.SettlementFailureCtx(ctx, q.alpha, q.ph, q.k); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
	b.Run("parallel", func(b *testing.B) {
		o := oracle.New(0)
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				q := stream[int(next.Add(1)-1)%len(stream)]
				if _, err := o.SettlementFailureCtx(ctx, q.alpha, q.ph, q.k); err != nil {
					b.Error(err) // Fatal must not run off the main goroutine
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
	// recorded is the flight-recorder overhead probe: the serial stream
	// served with full instrumentation — metrics registry, a live trace
	// with its root span in the context, and every query offered to the
	// recorder. The acceptance gate holds it within 5% of /serial.
	b.Run("recorded", func(b *testing.B) {
		o := oracle.New(0)
		o.Instrument(telemetry.New())
		rec := telemetry.NewRecorder(telemetry.RecorderConfig{})
		tr := telemetry.NewTrace("")
		root := tr.StartSpan("request", telemetry.SpanRef{})
		defer root.End()
		ctx := telemetry.WithTrace(ctx, tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := stream[i%len(stream)]
			if _, err := o.SettlementFailureCtx(ctx, q.alpha, q.ph, q.k); err != nil {
				b.Fatal(err)
			}
			rec.Record(tr)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
}

// BenchmarkOracleCold is the ablation baseline for BenchmarkOracleServe:
// the same zipfian stream answered the pre-oracle way, one fresh
// settlement sweep per query with nothing shared between queries.
func BenchmarkOracleCold(b *testing.B) {
	stream := oracleBenchStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := stream[i%len(stream)]
		a, err := core.New(q.alpha, q.ph)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.SettlementFailure(q.k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

// churnQuery is one query of BenchmarkOracleChurnMix's stream.
type churnQuery struct {
	op          string
	alpha, frac float64
	k           int
}

// churnMixStream draws n queries of the serve-churn op mix: 256
// parameter points, one in each of 256 equal strata of α ∈ [0.05, 0.30]
// paired with a seeded permutation of the strata of the honest fraction
// ∈ [0.50, 1.00]; each query picks a point, one of the five ops and a
// horizon k ∈ {50, 100, 150, 200} uniformly.
func churnMixStream(seed int64, n int) []churnQuery {
	const points = 256
	rng := rand.New(rand.NewSource(seed))
	stratum := func(i, span int) int {
		lo, hi := i*span/points, (i+1)*span/points
		return lo + rng.Intn(max(1, hi-lo))
	}
	type point struct{ alpha, frac float64 }
	fracOrder := rng.Perm(points)
	pts := make([]point, points)
	for i := range pts {
		pts[i] = point{float64(500+stratum(i, 2500)) / 1e4, float64(5000+stratum(fracOrder[i], 5000)) / 1e4}
	}
	ops := []string{"cell", "curve", "failure", "depth", "bracket"}
	horizons := []int{50, 100, 150, 200}
	stream := make([]churnQuery, n)
	for i := range stream {
		p := pts[rng.Intn(points)]
		stream[i] = churnQuery{ops[rng.Intn(len(ops))], p.alpha, p.frac, horizons[rng.Intn(len(horizons))]}
	}
	return stream
}

// BenchmarkOracleChurnMix is the in-process rung between the lattice
// kernel (BenchmarkCurveColdExtend) and perfbench's serve-churn workload:
// its op mix asked straight of an oracle whose cache holds 16 of the 256
// points, so nearly every query is a cold build or an extension. Depth
// queries search for target 1e-4 within kmax 4096, brackets run at
// τ = 1e-30. It reports ms/op and lattice steps/op; the step count comes
// from the oracle's own counters and does not move with the host's speed.
func BenchmarkOracleChurnMix(b *testing.B) {
	stream := churnMixStream(11, 1000)
	ctx := context.Background()
	o := oracle.New(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := stream[i%len(stream)]
		ph := q.frac * (1 - q.alpha)
		var err error
		switch q.op {
		case "cell":
			_, err = o.TableCellCtx(ctx, q.frac, q.k, q.alpha)
		case "curve":
			_, err = o.SettlementCurveCtx(ctx, q.alpha, ph, q.k)
		case "failure":
			_, err = o.SettlementFailureCtx(ctx, q.alpha, ph, q.k)
		case "depth":
			_, err = o.ConfirmationDepthCtx(ctx, q.alpha, ph, 1e-4, 4096)
		case "bracket":
			_, _, err = o.SettlementBracketCtx(ctx, q.alpha, ph, q.k, 1e-30)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := o.Stats()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(st.LatticePublished+st.LatticeReplayed)/float64(b.N), "steps/op")
}

// table1GridOracle warms one oracle over the Table-1 parameter grid
// (6 α columns × 6 honest fractions, curves to k = 500) exactly once per
// bench binary; BenchmarkSnapshotSave and BenchmarkOracleRestartToHot
// share it so neither pays the multi-second cold build inside the timer.
var (
	table1GridOnce   sync.Once
	table1GridCached *oracle.Oracle
)

func table1GridOracle(b *testing.B) *oracle.Oracle {
	b.Helper()
	table1GridOnce.Do(func() {
		o := oracle.New(0)
		ctx := context.Background()
		for _, frac := range []float64{1.0, 0.9, 0.5, 0.25, 0.1, 0.01} {
			for _, alpha := range []float64{0.10, 0.20, 0.25, 0.30, 0.40, 0.49} {
				if _, err := o.SettlementCurveCtx(ctx, alpha, frac*(1-alpha), 500); err != nil {
					panic(err)
				}
			}
		}
		table1GridCached = o
	})
	return table1GridCached
}

// BenchmarkSnapshotSave measures a full checkpoint of the Table-1 grid:
// encode every cached curve, CRC every section, fsync, atomically rename.
// This is the write the background checkpointer performs while serving,
// so its cost bounds the checkpoint interval worth configuring.
func BenchmarkSnapshotSave(b *testing.B) {
	o := table1GridOracle(b)
	path := filepath.Join(b.TempDir(), "oracle.snap")
	b.ReportAllocs()
	b.ResetTimer()
	entries := 0
	for i := 0; i < b.N; i++ {
		n, err := o.SaveSnapshotFile(faultfs.OS, path)
		if err != nil {
			b.Fatal(err)
		}
		entries = n
	}
	b.StopTimer()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(entries), "entries")
	b.ReportMetric(float64(fi.Size()), "snap_bytes")
}

// BenchmarkOracleRestartToHot is the ISSUE's restart-to-hot headline: a
// fresh process loads the Table-1 grid snapshot and answers its first
// query with zero DP rebuilds. The restart_ms metric is what EXPERIMENTS
// reports against the 1-second budget; cmd/benchjson tracks it across
// baselines.
func BenchmarkOracleRestartToHot(b *testing.B) {
	path := filepath.Join(b.TempDir(), "oracle.snap")
	if _, err := table1GridOracle(b).SaveSnapshotFile(faultfs.OS, path); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := oracle.New(0)
		stats, err := o.LoadSnapshotFile(faultfs.OS, path)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Damaged() || stats.Entries == 0 {
			b.Fatalf("warm boot from clean snapshot reported %+v", stats)
		}
		if _, err := o.SettlementFailureCtx(ctx, 0.30, 0.5*(1-0.30), 500); err != nil {
			b.Fatal(err)
		}
		if st := o.Stats(); st.Builds != 0 {
			b.Fatalf("warm boot rebuilt %d curves; snapshot was not hot", st.Builds)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "restart_ms")
}
