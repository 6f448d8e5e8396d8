package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/core"
	"multihonest/internal/lattice"
	"multihonest/internal/settlement"
)

// mustAnalyzer builds the uncached reference path for a parameter point.

// ctx is the context every test queries the oracle under.
var ctx = context.Background()

func mustAnalyzer(t *testing.T, alpha, ph float64) *core.Analyzer {
	t.Helper()
	a, err := core.New(alpha, ph)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustParams builds validated (ǫ, ph)-Bernoulli parameters from (α, ph).
func mustParams(t *testing.T, alpha, ph float64) charstring.Params {
	t.Helper()
	p, err := charstring.ParamsFromAlpha(alpha, ph)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testPoints is a small grid of canonical (α, frac) points (all exactly on
// the basis-point grid, so the oracle computes at the literal parameters).
var testPoints = []struct{ alpha, frac float64 }{
	{0.10, 1.00},
	{0.25, 0.50},
	{0.30, 0.25},
	{0.49, 0.01},
}

// TestOracleMatchesAnalyzer: every query type answered from the cache is
// byte-identical to the uncached core.Analyzer path — cold on the first
// query, hot on the repeat.
func TestOracleMatchesAnalyzer(t *testing.T) {
	o := New(0)
	const k = 120
	for _, pt := range testPoints {
		ph := pt.frac * (1 - pt.alpha)
		a, err := core.New(pt.alpha, ph)
		if err != nil {
			t.Fatal(err)
		}
		wantCurve, err := a.SettlementCurve(k)
		if err != nil {
			t.Fatal(err)
		}
		for pass, label := range []string{"cold", "hot"} {
			got, err := o.SettlementCurveCtx(ctx, pt.alpha, ph, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(wantCurve) {
				t.Fatalf("curve length %d, want %d", len(got), len(wantCurve))
			}
			for i := range got {
				if got[i] != wantCurve[i] {
					t.Fatalf("α=%v frac=%v %s pass %d: curve[%d] = %g, analyzer %g",
						pt.alpha, pt.frac, label, pass, i, got[i], wantCurve[i])
				}
			}

			p, err := o.SettlementFailureCtx(ctx, pt.alpha, ph, k)
			if err != nil {
				t.Fatal(err)
			}
			if wantP, _ := a.SettlementFailure(k); p != wantP {
				t.Fatalf("failure %g, analyzer %g", p, wantP)
			}

			cell, err := o.TableCellCtx(ctx, pt.frac, k, pt.alpha)
			if err != nil {
				t.Fatal(err)
			}
			if cell != wantCurve[k-1] {
				t.Fatalf("cell %g, curve end %g", cell, wantCurve[k-1])
			}

			lo, hi, err := o.SettlementBracketCtx(ctx, pt.alpha, ph, k, 1e-30)
			if err != nil {
				t.Fatal(err)
			}
			alo, ahi, err := a.SettlementBracket(k, 1e-30)
			if err != nil {
				t.Fatal(err)
			}
			if lo != alo || hi != ahi {
				t.Fatalf("bracket [%g, %g], analyzer [%g, %g]", lo, hi, alo, ahi)
			}

			// Depth queries only where the target is reachable in a small
			// search (α = 0.49 decays at Θ(ǫ³) and needs k ~ 10⁶).
			if pt.alpha <= 0.30 {
				depth, err := o.ConfirmationDepthCtx(ctx, pt.alpha, ph, 1e-6, 4096)
				if err != nil {
					t.Fatal(err)
				}
				if wantD, err := a.ConfirmationDepth(1e-6, 4096); err != nil || depth != wantD {
					t.Fatalf("depth %d (err %v), analyzer %d", depth, err, wantD)
				}
			}
		}
	}
	st := o.Stats()
	if st.Builds == 0 || st.Hits == 0 {
		t.Errorf("stats show no builds or no hits: %+v", st)
	}
}

// TestOracleCanonicalization: parameters within half a basis point of each
// other share one entry and return byte-identical answers.
func TestOracleCanonicalization(t *testing.T) {
	o := New(0)
	exact, err := o.SettlementFailureCtx(ctx, 0.30, 0.25*(1-0.30), 60)
	if err != nil {
		t.Fatal(err)
	}
	// The same point recovered through perturbing float arithmetic
	// (0.1 × 3 ≠ 0.30 in the last ulp).
	alpha := 0.1 * 3.0
	perturbed, err := o.SettlementFailureCtx(ctx, alpha, 0.25*(1-alpha), 60)
	if err != nil {
		t.Fatal(err)
	}
	if exact != perturbed {
		t.Fatalf("perturbed lookup %g differs from canonical %g", perturbed, exact)
	}
	if st := o.Stats(); st.Entries != 1 || st.Builds != 1 {
		t.Fatalf("canonicalization did not share the entry: %+v", st)
	}
}

// TestOracleSingleflight: N concurrent identical cold queries run exactly
// one DP build, and everyone receives the right answer.
func TestOracleSingleflight(t *testing.T) {
	o := New(0)
	const (
		workers = 16
		k       = 100
	)
	want, err := mustAnalyzer(t, 0.25, 0.375).SettlementFailure(k)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	vals := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals[w], errs[w] = o.SettlementFailureCtx(ctx, 0.25, 0.375, k)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if vals[w] != want {
			t.Fatalf("worker %d got %g, want %g", w, vals[w], want)
		}
	}
	st := o.Stats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent identical queries ran %d builds, want exactly 1", workers, st.Builds)
	}
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("miss/hit accounting off: %+v", st)
	}
}

// TestOracleExtendUnderContention: goroutines racing to extend one cached
// curve to interleaved depths always read values bitwise equal to a
// fresh full build, and the chain is cold-built exactly once. Staged
// extension replays every step on the canonical capacity ladder, so
// whatever horizon the race reached first, each value is the one a
// single build computes.
func TestOracleExtendUnderContention(t *testing.T) {
	o := New(0)
	const (
		workers = 12
		kMax    = 240
	)
	fresh, err := settlement.New(mustParams(t, 0.30, 0.35)).ViolationCurve(kMax)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 8; i++ {
				k := 1 + rng.Intn(kMax)
				got, err := o.SettlementCurveCtx(ctx, 0.30, 0.35, k)
				if err != nil {
					errc <- err
					return
				}
				for j := range got {
					if got[j] != fresh[j] {
						errc <- fmt.Errorf("curve[%d] = %.17g under contention, fresh build %.17g", j, got[j], fresh[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The settled curve, fully extended, matches the fresh build end to end.
	final, err := o.SettlementCurveCtx(ctx, 0.30, 0.35, kMax)
	if err != nil {
		t.Fatal(err)
	}
	for j := range final {
		if final[j] != fresh[j] {
			t.Fatalf("final[%d] = %.17g, fresh build %.17g", j, final[j], fresh[j])
		}
	}
	if st := o.Stats(); st.Builds != 1 {
		t.Fatalf("contention ran %d builds of the chain, want 1 (+ extends): %+v", st.Builds, st)
	}
}

// TestOracleLRUEviction: the cache never holds more than its capacity and
// an evicted point rebuilds on return.
func TestOracleLRUEviction(t *testing.T) {
	o := New(2)
	points := []struct{ alpha, ph float64 }{{0.10, 0.5}, {0.20, 0.4}, {0.30, 0.3}}
	for _, pt := range points {
		if _, err := o.SettlementFailureCtx(ctx, pt.alpha, pt.ph, 40); err != nil {
			t.Fatal(err)
		}
	}
	st := o.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("capacity 2 after 3 points: %+v", st)
	}
	if st.ResidentCurveBytes <= 0 {
		t.Fatalf("resident bytes gauge not positive: %d", st.ResidentCurveBytes)
	}
	// The first point was evicted; touching it again is a miss + rebuild.
	if _, err := o.SettlementFailureCtx(ctx, 0.10, 0.5, 40); err != nil {
		t.Fatal(err)
	}
	if st = o.Stats(); st.Misses != 4 || st.Builds != 4 {
		t.Fatalf("evicted point did not rebuild: %+v", st)
	}
}

// TestOracleBatchPlanning: a batch mixing ops over shared parameter points
// groups by chain, answers in request order, and matches the singles path.
func TestOracleBatchPlanning(t *testing.T) {
	o := New(0)
	frac := 0.5
	queries := []BatchQuery{
		{Op: "cell", Alpha: 0.25, Frac: &frac, K: 80},
		{Op: "curve", Alpha: 0.25, Frac: &frac, K: 40},
		{Op: "failure", Alpha: 0.30, Frac: &frac, K: 60},
		{Op: "depth", Alpha: 0.25, Frac: &frac, Target: 1e-6, KMax: 2048},
		{Op: "bracket", Alpha: 0.25, Frac: &frac, K: 80, Tau: 1e-30},
		{Op: "cell", Alpha: 0.30, Frac: &frac, K: 60},
		{Op: "bogus", Alpha: 0.25, Frac: &frac, K: 10},
	}
	results, plan, err := o.BatchCtx(ctx, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Chains: (0.25, τ=0), (0.30, τ=0), (0.25, τ=1e-30) — the bogus op
	// fails validation in its slot and joins no group.
	if plan.Groups != 3 || plan.Queries != len(queries) || plan.MaxK != 80 {
		t.Fatalf("plan %+v", plan)
	}
	a := mustAnalyzer(t, 0.25, frac*(1-0.25))
	if want, _ := a.SettlementFailure(80); results[0].P == nil || *results[0].P != want {
		t.Fatalf("batch cell = %v, want %g", results[0].P, want)
	}
	wantCurve, _ := a.SettlementCurve(40)
	if len(results[1].Curve) != 40 || results[1].Curve[39] != wantCurve[39] {
		t.Fatalf("batch curve mismatch")
	}
	if wantD, _ := a.ConfirmationDepth(1e-6, 2048); results[3].Depth != wantD {
		t.Fatalf("batch depth %d, want %d", results[3].Depth, wantD)
	}
	alo, ahi, _ := a.SettlementBracket(80, 1e-30)
	if *results[4].Lower != alo || *results[4].Upper != ahi {
		t.Fatalf("batch bracket [%g, %g], want [%g, %g]", *results[4].Lower, *results[4].Upper, alo, ahi)
	}
	if results[6].Error == "" {
		t.Fatal("bogus op did not report a per-query error")
	}
	for i, r := range results[:6] {
		if r.Error != "" {
			t.Fatalf("query %d failed: %s", i, r.Error)
		}
	}
}

// TestOracleBatchInvalidLeavesCache: a batch of queries that all fail
// validation is rejected slot by slot before any of them reaches the
// cache, so a full cache keeps every hot entry — no miss, no new entry,
// no eviction — and each slot carries the GET path's error text.
func TestOracleBatchInvalidLeavesCache(t *testing.T) {
	o := New(4)
	for _, alpha := range []float64{0.10, 0.20, 0.25, 0.30} {
		if _, err := o.SettlementFailureCtx(ctx, alpha, 0.5*(1-alpha), 20); err != nil {
			t.Fatal(err)
		}
	}
	before := o.Stats()
	frac, tooBig := 0.5, 1.5
	var queries []BatchQuery
	var want []string
	for i := 0; i < 6; i++ {
		alpha := 0.05 + 0.05*float64(i)
		queries = append(queries,
			BatchQuery{Op: "curve", Alpha: alpha, Frac: &frac, K: 0},
			BatchQuery{Op: "depth", Alpha: alpha, Frac: &frac, Target: 2, KMax: 100})
		want = append(want, "oracle: k = 0 outside [1, 4096]", "oracle: target 2 outside (0,1)")
	}
	queries = append(queries,
		BatchQuery{Op: "depth", Alpha: 0.40, Frac: &frac, Target: 1e-6, KMax: 0},
		BatchQuery{Op: "bracket", Alpha: 0.40, Frac: &frac, K: MaxQueryHorizon + 1},
		BatchQuery{Op: "nope", Alpha: 0.40, Frac: &frac, K: 10},
		BatchQuery{Op: "cell", Alpha: 0.30, Frac: &tooBig, K: 60})
	want = append(want, "oracle: kmax 0 outside [1, 1048576]", "oracle: k = 4097 outside [1, 4096]",
		`oracle: unknown op "nope"`, "oracle: honest fraction 1.5 outside [0, 1]")
	results, plan, err := o.BatchCtx(ctx, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Error != want[i] {
			t.Errorf("query %d (%s): error %q, want %q", i, queries[i].Op, r.Error, want[i])
		}
	}
	if plan.Groups != 0 {
		t.Errorf("invalid queries planned into %d groups", plan.Groups)
	}
	after := o.Stats()
	if after.Entries != before.Entries || after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Fatalf("invalid batch touched the cache: entries/misses/evictions %d/%d/%d → %d/%d/%d",
			before.Entries, before.Misses, before.Evictions, after.Entries, after.Misses, after.Evictions)
	}
}

// TestOracleBatchOversizedSlot: a curve slot whose k is past every
// bound fails alone with the GET path's range error; it neither counts
// toward MaxBatchCurvePoints nor rejects its valid siblings.
func TestOracleBatchOversizedSlot(t *testing.T) {
	o := New(4)
	frac := 0.5
	results, _, err := o.BatchCtx(ctx, []BatchQuery{
		{Op: "curve", Alpha: 0.30, Frac: &frac, K: MaxBatchCurvePoints + 1},
		{Op: "failure", Alpha: 0.30, Frac: &frac, K: 20},
	}, 1)
	if err != nil {
		t.Fatalf("an invalid slot rejected the whole batch: %v", err)
	}
	_, getErr := o.SettlementCurveCtx(ctx, 0.30, 0.35, MaxBatchCurvePoints+1)
	if getErr == nil || results[0].Error != getErr.Error() {
		t.Errorf("oversized slot: error %q, want the GET path's %v", results[0].Error, getErr)
	}
	want, err := o.SettlementFailureCtx(ctx, 0.30, 0.35, 20)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Error != "" || results[1].P == nil || *results[1].P != want {
		t.Errorf("valid sibling: %+v, want p = %v", results[1], want)
	}
}

// TestOracleBatchOpFaultFirst: a batch slot with both a fault of its op
// (unknown op, bad k, kmax, target or honest fraction) and a fault in
// how it gives ph (neither ph nor frac, both, or a cell without frac)
// reports the op fault — the error the GET path's validation would give.
func TestOracleBatchOpFaultFirst(t *testing.T) {
	o := New(4)
	ph, frac, tooBig := 0.35, 0.5, 1.5
	queries := []BatchQuery{
		{Op: "curve", Alpha: 0.30, K: 0},
		{Op: "bracket", Alpha: 0.30, Ph: &ph, Frac: &frac, K: MaxQueryHorizon + 1},
		{Op: "cell", Alpha: 0.30, Ph: &ph, K: 0},
		{Op: "cell", Alpha: 0.30, Ph: &ph, Frac: &tooBig, K: 60},
		{Op: "depth", Alpha: 0.30, Target: 2, KMax: 100},
		{Op: "depth", Alpha: 0.30, Ph: &ph, Frac: &frac, Target: 1e-6, KMax: 0},
		{Op: "nope", Alpha: 0.30, K: 10},
	}
	want := []string{
		"oracle: k = 0 outside [1, 4096]",
		"oracle: k = 4097 outside [1, 4096]",
		"oracle: k = 0 outside [1, 4096]",
		"oracle: honest fraction 1.5 outside [0, 1]",
		"oracle: target 2 outside (0,1)",
		"oracle: kmax 0 outside [1, 1048576]",
		`oracle: unknown op "nope"`,
	}
	results, _, err := o.BatchCtx(ctx, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Error != want[i] {
			t.Errorf("query %d (%s): error %q, want %q", i, queries[i].Op, r.Error, want[i])
		}
	}
}

// TestOracleQueryCounts: both paths count a query once it has passed
// validation and reached its cache entry, so an invalid GET-path query
// and an invalid batch query leave oracle_queries_total{op} alone and a
// valid one of each adds exactly 1.
func TestOracleQueryCounts(t *testing.T) {
	o := New(4)
	frac := 0.5
	if _, err := o.SettlementCurveCtx(ctx, 0.25, 0.375, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	res, _, err := o.BatchCtx(ctx, []BatchQuery{{Op: "curve", Alpha: 0.25, Frac: &frac, K: 0}}, 1)
	if err != nil || res[0].Error == "" {
		t.Fatalf("invalid batch curve query: err %v, result %+v", err, res[0])
	}
	if n := o.Stats().CurveQueries; n != 0 {
		t.Fatalf("invalid queries counted: CurveQueries = %d, want 0", n)
	}
	if _, err := o.SettlementCurveCtx(ctx, 0.25, 0.375, 10); err != nil {
		t.Fatal(err)
	}
	if n := o.Stats().CurveQueries; n != 1 {
		t.Fatalf("after one valid GET-path query: CurveQueries = %d, want 1", n)
	}
	if res, _, err := o.BatchCtx(ctx, []BatchQuery{{Op: "curve", Alpha: 0.25, Frac: &frac, K: 10}}, 1); err != nil || res[0].Error != "" {
		t.Fatalf("valid batch curve query: err %v, result %+v", err, res[0])
	}
	if n := o.Stats().CurveQueries; n != 2 {
		t.Fatalf("after one valid batch query: CurveQueries = %d, want 2", n)
	}
}

// TestOracleReadoutResidency: after a warm pass over every op — exact
// curves across several ladder capacities, a pruned bracket chain, and
// depth searches on upper-bound chains — no resident entry holds a
// lattice engine: the resident-bytes gauge equals the sum of the
// entries' readout slices, cap × 8 bytes each.
func TestOracleReadoutResidency(t *testing.T) {
	o := New(16)
	for _, k := range []int{10, 17, 70, 200} {
		if _, err := o.SettlementCurveCtx(ctx, 0.25, 0.375, k); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.SettlementBracketCtx(ctx, 0.30, 0.35, k, 1e-30); err != nil {
			t.Fatal(err)
		}
	}
	for _, target := range []float64{1e-3, 1e-9} {
		if _, err := o.ConfirmationDepthCtx(ctx, 0.25, 0.375, target, 4096); err != nil {
			t.Fatal(err)
		}
	}
	frac := 0.5
	if _, _, err := o.BatchCtx(ctx, []BatchQuery{
		{Op: "curve", Alpha: 0.20, Frac: &frac, K: 50},
		{Op: "depth", Alpha: 0.20, Frac: &frac, Target: 1e-6, KMax: 1000},
	}, 1); err != nil {
		t.Fatal(err)
	}
	var readouts int64
	curves := 0
	o.mu.Lock()
	for _, e := range o.entries {
		e.mu.Lock()
		all := []*lattice.Curve{e.curve}
		for _, uc := range e.upper {
			all = append(all, uc)
		}
		for _, c := range all {
			if c == nil {
				continue
			}
			curves++
			readouts += c.ReadoutBytes()
			if c.MemBytes() != c.ReadoutBytes() {
				t.Errorf("key %+v: a resting curve holds %d engine bytes", e.key, c.MemBytes()-c.ReadoutBytes())
			}
		}
		e.mu.Unlock()
	}
	o.mu.Unlock()
	if curves < 5 {
		t.Fatalf("warm pass left %d curves resident, want ≥ 5", curves)
	}
	if got := o.Stats().ResidentCurveBytes; got != readouts {
		t.Fatalf("ResidentCurveBytes = %d, want the readout slices' %d", got, readouts)
	}
}

// TestOracleValidation: out-of-domain queries return errors, not entries.
func TestOracleValidation(t *testing.T) {
	o := New(0)
	cases := []func() error{
		func() error { _, err := o.SettlementCurveCtx(ctx, 0.6, 0.1, 10); return err },
		func() error { _, err := o.SettlementCurveCtx(ctx, 0.25, -0.1, 10); return err },
		func() error { _, err := o.SettlementCurveCtx(ctx, 0.25, 0.3, 0); return err },
		func() error { _, err := o.SettlementCurveCtx(ctx, 0.25, 0.3, MaxQueryHorizon+1); return err },
		func() error { _, err := o.ConfirmationDepthCtx(ctx, 0.25, 0.3, 1.5, 100); return err },
		func() error { _, err := o.ConfirmationDepthCtx(ctx, 0.25, 0.3, 1e-6, 0); return err },
		func() error { _, err := o.ConfirmationDepthCtx(ctx, 0.25, 0.3, 1e-6, MaxDepthKMax+1); return err },
		func() error { _, _, err := o.SettlementBracketCtx(ctx, 0.25, 0.3, 10, -1); return err },
		func() error { _, err := o.TableCellCtx(ctx, 1.5, 10, 0.25); return err },
		// ph beyond the uniquely-honest ceiling (1+ǫ)/2 at the canonical point.
		func() error { _, err := o.SettlementCurveCtx(ctx, 0.25, 0.9, 10); return err },
	}
	nan := math.NaN()
	cases = append(cases,
		func() error { _, err := o.SettlementCurveCtx(ctx, nan, 0.3, 10); return err },
		func() error { _, err := o.SettlementCurveCtx(ctx, 0.25, nan, 10); return err },
		func() error { _, err := o.ConfirmationDepthCtx(ctx, 0.25, 0.3, nan, 100); return err },
		func() error { _, _, err := o.SettlementBracketCtx(ctx, 0.25, 0.3, 10, nan); return err },
	)
	for i, f := range cases {
		if err := f(); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
	// A NaN honest fraction is rejected by the frac guard itself, not
	// later as a NaN ph.
	if _, err := o.TableCellCtx(ctx, nan, 10, 0.25); err == nil || !strings.Contains(err.Error(), "honest fraction NaN") {
		t.Errorf("TableCellCtx(frac=NaN): error %v, want one naming the honest fraction", err)
	}
	if st := o.Stats(); st.Entries != 0 {
		t.Fatalf("invalid queries left %d cache entries", st.Entries)
	}

	// An aggregate batch of curve queries past the point cap is rejected
	// whole, before any DP work.
	frac := 0.5
	big := make([]BatchQuery, 0, MaxBatchCurvePoints/MaxQueryHorizon+1)
	for points := 0; points <= MaxBatchCurvePoints; points += MaxQueryHorizon {
		big = append(big, BatchQuery{Op: "curve", Alpha: 0.25, Frac: &frac, K: MaxQueryHorizon})
	}
	if _, _, err := o.BatchCtx(ctx, big, 1); err == nil {
		t.Error("oversized batch accepted")
	}
	if st := o.Stats(); st.Entries != 0 {
		t.Fatalf("rejected batch left %d cache entries", st.Entries)
	}
}

// TestKeyRoundTrip: the canonical key reconstructs the exact grid values.
func TestKeyRoundTrip(t *testing.T) {
	key, p, err := Canonicalize(0.30, 0.25*(1-0.30), 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	if key.Alpha() != 0.30 || key.HonestFraction() != 0.25 {
		t.Fatalf("key (α=%v, frac=%v), want (0.30, 0.25)", key.Alpha(), key.HonestFraction())
	}
	if key.Tau() != 1e-30 {
		t.Fatalf("tau %v survived as %v", 1e-30, key.Tau())
	}
	if got := math.Abs(p.PA() - 0.30); got > 1e-15 {
		t.Fatalf("canonical params pA = %v, want 0.30", p.PA())
	}
}
