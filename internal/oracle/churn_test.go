package oracle

import (
	"testing"

	"multihonest/internal/settlement"
)

// TestOracleChurnRebuildsByteIdentical drives the LRU through sustained
// churn — a working set more than twice the capacity, cycled for several
// rounds with one deliberately hot key — and checks the two properties
// eviction must preserve:
//
//  1. A key that was evicted and re-queried rebuilds a curve that is
//     byte-identical to a cold single-use computation at the same
//     canonical parameters (eviction loses residency, never answers).
//  2. The stats counters stay consistent throughout: every lookup is
//     exactly one hit or one miss, every miss runs exactly one build,
//     and evictions account for precisely the entries no longer
//     resident.
func TestOracleChurnRebuildsByteIdentical(t *testing.T) {
	const capacity, k, rounds = 3, 50, 4
	o := New(capacity)

	points := []struct{ alpha, ph float64 }{
		{0.10, 0.50}, {0.15, 0.45}, {0.20, 0.40}, {0.25, 0.35},
		{0.30, 0.30}, {0.35, 0.25}, {0.40, 0.20},
	}

	// Cold references, computed outside the oracle at the same canonical
	// parameters the oracle reconstructs from the key grid.
	cold := make([][]float64, len(points))
	for i, pt := range points {
		_, cp, err := Canonicalize(pt.alpha, pt.ph, 0)
		if err != nil {
			t.Fatal(err)
		}
		curve, err := settlement.New(cp).ViolationCurve(k)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = curve
	}

	lookups := 0
	query := func(i int) []float64 {
		t.Helper()
		curve, err := o.SettlementCurveCtx(ctx, points[i].alpha, points[i].ph, k)
		if err != nil {
			t.Fatal(err)
		}
		lookups++
		if len(curve) != k {
			t.Fatalf("point %d: curve length %d, want %d", i, len(curve), k)
		}
		for j := range curve {
			if curve[j] != cold[i][j] {
				t.Fatalf("point %d after churn: curve[%d] = %.17g, cold build %.17g (rebuild not byte-identical)",
					i, j, curve[j], cold[i][j])
			}
		}
		return curve
	}

	// Churn: each round sweeps the whole working set (seven keys through a
	// three-entry cache guarantees every key is evicted between its own
	// visits) and touches point 0 once mid-sweep to keep LRU order moving.
	for round := 0; round < rounds; round++ {
		for i := range points {
			query(i)
			if i == len(points)/2 {
				query(0)
			}
		}
		st := o.Stats()
		if st.Entries > capacity {
			t.Fatalf("round %d: %d resident entries exceed capacity %d", round, st.Entries, capacity)
		}
	}

	st := o.Stats()
	if st.Entries != capacity {
		t.Fatalf("after churn: %d resident entries, want the cache full at %d", st.Entries, capacity)
	}
	if st.Hits+st.Misses != int64(lookups) {
		t.Fatalf("hits %d + misses %d != %d lookups: %+v", st.Hits, st.Misses, lookups, st)
	}
	if st.Builds != st.Misses {
		t.Fatalf("builds %d != misses %d (a miss must run exactly one build): %+v", st.Builds, st.Misses, st)
	}
	if st.Evictions != st.Builds-int64(st.Entries) {
		t.Fatalf("evictions %d != builds %d − resident %d: %+v", st.Evictions, st.Builds, st.Entries, st)
	}
	// Every visit to an already-evicted key is a miss, so with a working
	// set far over capacity the misses must keep accruing round after
	// round — at least one full sweep's worth per round.
	if st.Misses < int64(rounds*(len(points)-capacity)) {
		t.Fatalf("only %d misses across %d churn rounds: %+v", st.Misses, rounds, st)
	}
	if st.ResidentCurveBytes <= 0 {
		t.Fatalf("resident bytes gauge not positive after churn: %d", st.ResidentCurveBytes)
	}

	// One more cold re-query of a certainly-evicted key, checked against
	// the reference a final time (query fails the test on any mismatch),
	// and the counters must record it as a fresh miss + build.
	preMisses, preBuilds := st.Misses, st.Builds
	query(1)
	st = o.Stats()
	if st.Misses != preMisses+1 || st.Builds != preBuilds+1 {
		t.Fatalf("re-query of evicted point: misses %d→%d builds %d→%d, want both +1",
			preMisses, st.Misses, preBuilds, st.Builds)
	}
}
