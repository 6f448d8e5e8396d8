// Package runner is the parallel Monte-Carlo experiment engine: one
// worker pool (ForEach's claiming loop) that generates characteristic
// strings 64 symbols at a time from per-sample random streams, judges
// each sample online with a per-worker reusable verdict, and folds
// per-batch partial sums into an Estimate (Wilson interval) or, for
// importance-sampled jobs, a WeightedEstimate.
//
// # Determinism
//
// The sampling scheme is defined over batches and samples, not workers:
// the N samples of a job are partitioned into ⌈N/BatchSize⌉ consecutive
// batches, and sample i of batch b always draws from the splitmix64
// stream seeded by SampleSeed(seed, b, i), regardless of which worker
// claims the batch or in which order batches complete. Each batch stores
// its partial sums in its own slot, and the slots fold in batch order
// once the pool returns, so float sums are added in one fixed order.
// Every estimate is therefore bit-identical for every worker count and
// every GOMAXPROCS setting. See DESIGN.md §4 for the full argument.
//
// The batch size is part of the sampling scheme: two runs agree exactly
// only if they share N, Seed and BatchSize. Worker count never matters.
package runner

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"multihonest/internal/charstring"
	"multihonest/internal/stats"
)

// DefaultBatchSize is the batch granularity used when Config.BatchSize is
// zero. It is large enough to amortize goroutine scheduling and result
// bookkeeping, and small enough to load-balance uneven verdict costs.
const DefaultBatchSize = 256

// Estimate is a Monte-Carlo frequency with its Wilson 95% confidence
// interval. It is the result type of every experiment in package mc.
type Estimate struct {
	Hits, N int     // raw event count and sample count
	P       float64 // point estimate Hits/N
	Lo, Hi  float64 // Wilson 95% interval
}

// NewEstimate assembles an Estimate from raw counts, attaching the Wilson
// interval from package stats.
func NewEstimate(hits, n int) Estimate {
	lo, hi := stats.Wilson(hits, n)
	p := 0.0
	if n > 0 {
		p = float64(hits) / float64(n)
	}
	return Estimate{Hits: hits, N: n, P: p, Lo: lo, Hi: hi}
}

// String renders the estimate compactly, e.g. "0.0123 [0.0101, 0.0149] (49/4000)".
func (e Estimate) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d/%d)", e.P, e.Lo, e.Hi, e.Hits, e.N)
}

// Verdict is a pure per-string decision: it reports whether a whole
// string exhibits the experiment's event. The engine never runs one — it
// drives block verdicts — but the slice verdicts of package mc are the
// references those are checked against, sample by sample. A Verdict must
// not retain or mutate w and must be safe for concurrent use.
type Verdict func(w charstring.String) (bool, error)

// Config describes one Monte-Carlo job.
type Config struct {
	// N is the total number of samples. N ≤ 0 yields the empty Estimate.
	N int
	// Seed selects the deterministic sample streams; see SampleSeed.
	Seed int64
	// Workers is the worker-pool size; 0 (or negative) selects
	// runtime.GOMAXPROCS(0). The result never depends on Workers.
	Workers int
	// BatchSize is the number of samples per batch; 0 selects
	// DefaultBatchSize. Unlike Workers it is part of the sampling scheme:
	// changing it changes which strings are drawn.
	BatchSize int
	// Name labels the job's telemetry series (see Instrument); empty is
	// reported as "unnamed". It is display metadata only — never part of
	// the sampling scheme.
	Name string
}

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix used to
// derive decorrelated per-sample seeds from (job seed, batch, index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ForEach runs f(i) for every i in [0, n) on a pool of the given number of
// goroutines (0 selects GOMAXPROCS). It is the parallel-for behind the
// Monte-Carlo drivers below, the settlement Table 1 sweep, the oracle
// batch, the mc series helpers and rare-event splitting. The first error
// stops new work from being claimed and is returned; f must write only
// to index-i state (e.g. out[i]) so that invocations never race.
func ForEach(workers, n int, f func(i int) error) error {
	return forEachWorker(workers, n, func() func(int) error { return f })
}

// forEachWorker is ForEach with per-worker state: each goroutine calls
// newWorker once and runs every index it claims through the function it
// returns, so scratch built there is reused without sharing.
func forEachWorker(workers, n int, newWorker func() func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	var next atomic.Int64
	var failed atomic.Bool
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := newWorker()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := f(i); err != nil {
					failed.Store(true)
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs // nil when the channel is empty
}

// batchSums is one batch's partial sums: the hit count and Σw, Σw² over
// the hits' importance weights (every weight is 1 for unweighted jobs).
type batchSums struct {
	hits        int
	sumW, sumW2 float64
}

// judge runs one sample on its freshly reseeded stream and returns the
// verdict with the sample's importance weight.
type judge func(rng *SM64) (hit bool, weight float64, err error)

// runBatches is the driver behind every Run* entry point: the job's
// ⌈N/BatchSize⌉ batches run on forEachWorker, and each worker builds one
// judge from newJudge, wrapping its reusable verdict scratch. A batch
// sums into locals and stores one batchSums in its own slot, so the
// sample loop touches no shared state; the slots then fold in batch
// order. Telemetry records each finished batch from its worker, outside
// the sample loop.
func runBatches(cfg Config, newJudge func() judge) (batchSums, error) {
	if cfg.N <= 0 {
		return batchSums{}, nil
	}
	bs := cfg.batchSize()
	slots := make([]batchSums, (cfg.N+bs-1)/bs)
	tk := track(&cfg)
	defer tk.finish()
	err := forEachWorker(cfg.Workers, len(slots), func() func(int) error {
		j := newJudge()
		var rng SM64
		return func(b int) error {
			lo := b * bs
			hi := min(lo+bs, cfg.N)
			var s batchSums
			for i := lo; i < hi; i++ {
				rng.Reseed(SampleSeed(cfg.Seed, b, i-lo))
				hit, w, err := j(&rng)
				if err == nil && (w < 0 || math.IsNaN(w) || math.IsInf(w, 0)) {
					err = fmt.Errorf("invalid importance weight %v", w)
				}
				if err != nil {
					return fmt.Errorf("runner: batch %d sample %d: %w", b, i, err)
				}
				if hit {
					s.hits++
					s.sumW += w
					s.sumW2 += w * w
				}
			}
			slots[b] = s
			tk.batch(hi - lo)
			return nil
		}
	})
	if err != nil {
		return batchSums{}, err
	}
	var total batchSums
	for _, s := range slots {
		total.hits += s.hits
		total.sumW += s.sumW
		total.sumW2 += s.sumW2
	}
	return total, nil
}
