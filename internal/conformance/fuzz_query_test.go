package conformance

import (
	"context"
	"math"
	"testing"

	"multihonest/internal/oracle"
)

// queryPathsOracle is the one oracle FuzzQueryPaths asks, through
// queryPathsServer's GET routes and its own BatchCtx: answers must agree
// on a cache warmed by earlier inputs as much as on a cold one.
var (
	queryPathsOracle = oracle.New(64)
	queryPathsServer = oracle.NewServer(queryPathsOracle, 1).Handler()
)

// FuzzQueryPaths sends one fuzzer-chosen query over any of the five ops
// through GET /v1/<op> and as a one-element batch to the same oracle,
// and requires bitwise-equal numbers or the same error text.
// Out-of-range k, kmax, target, honest fraction and τ and points outside
// the canonical domain pass through as drawn. In-range values are
// folded onto a cheap region — k ≤ 160, kmax ≤ 512, target ≥ 1e-9,
// α ≤ 0.45 — so no input builds a large lattice grid. NaN and ±Inf
// are skipped, since a URL and JSON carry no such query.
func FuzzQueryPaths(f *testing.F) {
	f.Add(uint8(1), 0.30, 0.25, true, 20, 0.0, 0.0)
	f.Add(uint8(0), 0.25, 0.5, true, 4096, 1e-6, 0.0)
	f.Add(uint8(3), 0.30, 1.5, true, 60, 0.0, 0.0)
	f.Add(uint8(4), 0.30, 0.175, false, 60, 0.0, 1e-30)
	f.Add(uint8(4), 0.30, 0.25, true, 60, 0.0, -1.0)
	f.Add(uint8(2), 0.80, 0.1, false, 60, 0.0, 0.0)
	f.Add(uint8(2), 0.25, 0.9, false, 10, 0.0, 0.0)
	f.Add(uint8(1), 0.30, 0.25, true, 0, 0.0, 0.0)
	f.Add(uint8(2), 0.30, 0.25, true, 4097, 0.0, 0.0)
	f.Add(uint8(0), 0.25, 0.5, true, 10, 2.0, 0.0)
	f.Add(uint8(0), 0.25, 0.5, true, 0, 1e-6, 0.0)
	f.Add(uint8(0), 0.25, 0.5, true, oracle.MaxDepthKMax+1, 1e-6, 0.0)
	f.Add(uint8(0), 0.45, 0.5, true, 64, 1e-9, 0.0)
	f.Fuzz(func(t *testing.T, op uint8, alpha, x float64, byFrac bool, k int, target, tau float64) {
		for _, v := range []float64{alpha, x, target, tau} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		ops := []string{"depth", "curve", "failure", "cell", "bracket"}
		q := oracle.BatchQuery{Op: ops[int(op)%len(ops)], Alpha: alpha, Target: target, Tau: tau}
		if q.Op == "cell" || byFrac {
			q.Frac = &x
		} else {
			q.Ph = &x
		}
		if q.Alpha > 0.45 && q.Alpha < 0.5 {
			q.Alpha -= 0.25
		}
		if q.Op == "depth" {
			if k >= 1 && k <= oracle.MaxDepthKMax {
				k = 1 + (k-1)%512
			}
			q.KMax = k
			if q.Target > 0 && q.Target < 1e-9 {
				q.Target = 1e-9
			}
		} else {
			if k >= 1 && k <= oracle.MaxQueryHorizon {
				k = 1 + (k-1)%160
			}
			q.K = k
		}
		get := getAsk(t, queryPathsServer, q)
		batch, _, err := queryPathsOracle.BatchCtx(context.Background(), []oracle.BatchQuery{q}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(get, batch[0]) {
			t.Fatalf("query %+v: GET answers %q %d %v, one-element batch %q %d %v", q,
				get.Error, get.Depth, numbers(get), batch[0].Error, batch[0].Depth, numbers(batch[0]))
		}
	})
}
