package oracle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"multihonest/internal/settlement"
	"multihonest/internal/telemetry"
)

// TestInstrumentedOracleCounters drives an instrumented oracle through
// hits, misses, builds, and extensions and checks every metric family
// lands in the Prometheus exposition with the right values.
func TestInstrumentedOracleCounters(t *testing.T) {
	o := New(8)
	reg := telemetry.New()
	o.Instrument(reg)

	if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 16); err != nil { // miss + cold build
		t.Fatal(err)
	}
	if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 16); err != nil { // warm hit
		t.Fatal(err)
	}
	if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 32); err != nil { // hit + extension
		t.Fatal(err)
	}
	if _, err := o.SettlementCurveCtx(ctx, 0.2, 0.4, 32); err != nil { // hit, already long enough
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"oracle_cache_hits_total":     3,
		"oracle_cache_misses_total":   1,
		"oracle_build_seconds_count":  1,
		"oracle_extend_seconds_count": 1,
		"oracle_cache_entries":        1,
	}
	for name, want := range checks {
		if got, ok := sc.Value(name, nil); !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if got, _ := sc.Value("oracle_queries_total", map[string]string{"op": "cell"}); got != 3 {
		t.Errorf("cell query counter = %v, want 3", got)
	}
	if got, _ := sc.Value("oracle_queries_total", map[string]string{"op": "curve"}); got != 1 {
		t.Errorf("curve query counter = %v, want 1", got)
	}
	if got, ok := sc.Value("oracle_resident_curve_bytes", nil); !ok || got <= 0 {
		t.Errorf("resident bytes gauge = %v (present=%v), want > 0", got, ok)
	}
}

// TestOracleWarmServeZeroAllocsInstrumented pins the telemetry cost on
// the oracle's warm serve path: a fully instrumented oracle answering a
// traced point query from a resident curve must not allocate.
func TestOracleWarmServeZeroAllocsInstrumented(t *testing.T) {
	o := New(8)
	o.Instrument(telemetry.New())
	if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 64); err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.WithTrace(context.Background(), telemetry.NewTrace(""))
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm instrumented serve: %v allocs/op, want 0", allocs)
	}
}

// TestTelemetryStatsConsistency drives an instrumented oracle and
// cluster through a damaged warm boot, a randomized concurrent workload,
// failing forwards and a snapshot save, then checks that /metrics holds
// every counter Stats and ClusterStats report, at exactly the same
// value. Counters are func-backed series over the same atomics and the
// latency histograms record at the same call sites, so any difference is
// an instrumentation bug, not load.
func TestTelemetryStatsConsistency(t *testing.T) {
	o := New(4) // smaller than the point set, so evictions happen
	reg := telemetry.New()
	o.Instrument(reg)
	c := failingCluster(t, o)
	c.Instrument(reg)

	// Warm boot from a snapshot with one damaged section: some entries
	// load, at least one section is quarantined.
	bootFromDamagedSnapshot(t, o)

	points := []struct{ alpha, frac float64 }{
		{0.05, 0.90}, {0.10, 1.00}, {0.15, 0.75}, {0.20, 0.50},
		{0.25, 0.50}, {0.30, 0.25}, {0.35, 0.10}, {0.40, 0.05},
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				pt := points[rng.Intn(len(points))]
				ph := pt.frac * (1 - pt.alpha)
				k := 8 + rng.Intn(40)
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = o.SettlementFailureCtx(ctx, pt.alpha, ph, k)
				case 1:
					_, err = o.SettlementCurveCtx(ctx, pt.alpha, ph, k)
				case 2:
					_, _, err = o.SettlementBracketCtx(ctx, pt.alpha, ph, k, 0)
				default:
					// Unreachable targets are a legitimate outcome at
					// slow-decay points; the query still counts.
					if _, err = o.ConfirmationDepthCtx(ctx, pt.alpha, ph, 1e-2, 256); errors.Is(err, settlement.ErrTargetUnreachable) {
						err = nil
					}
				}
				if err != nil {
					t.Errorf("workload query: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	driveFailingForwards(t, c)
	if _, err := o.SaveSnapshotFile(nil, filepath.Join(t.TempDir(), "oracle.mhsnap")); err != nil {
		t.Fatal(err)
	}

	st := o.Stats()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int64{
		"oracle_cache_hits_total":      st.Hits,
		"oracle_cache_misses_total":    st.Misses,
		"oracle_cache_evictions_total": st.Evictions,
		"oracle_coalesced_waits_total": st.CoalescedWaits,
		"oracle_build_seconds_count":   st.Builds,
		"oracle_extend_seconds_count":  st.Extends,
		"oracle_resident_curve_bytes":  st.ResidentCurveBytes,
		"oracle_cache_entries":         int64(st.Entries),

		"oracle_snapshot_saves_total":                st.SnapshotSaves,
		"oracle_snapshot_loaded_total":               st.SnapshotLoaded,
		"oracle_snapshot_quarantined_sections_total": st.SnapshotBadSects,
	}
	for name, want := range checks {
		if got, ok := sc.Value(name, nil); !ok || got != float64(want) {
			t.Errorf("%s = %v (present=%v), Stats says %d", name, got, ok, want)
		}
	}
	if st.Evictions == 0 || st.SnapshotSaves == 0 || st.SnapshotLoaded == 0 || st.SnapshotBadSects == 0 {
		t.Errorf("workload left an oracle counter at zero; consistency check under-exercised: %+v", st)
	}

	cs := c.Stats()
	sum := func(name string) float64 { return sc.SumFunc(name, func(map[string]string) bool { return true }) }
	clusterChecks := map[string]int64{
		"cluster_forwards_total":        cs.Forwards,
		"cluster_forward_retries_total": cs.ForwardRetries,
		"cluster_hedges_total":          cs.Hedges,
		"cluster_local_fallbacks_total": cs.LocalFallbacks,
		"cluster_loop_serves_total":     cs.LoopServes,
	}
	for name, want := range clusterChecks {
		if want == 0 {
			t.Errorf("%s: ClusterStats counter is zero; consistency check under-exercised", name)
		}
		if got := sum(name); got != float64(want) {
			t.Errorf("%s = %v, ClusterStats says %d", name, got, want)
		}
	}
	opChecks := map[string]int64{
		"cell": st.CellQueries, "curve": st.CurveQueries,
		"bracket": st.BracketQueries, "depth": st.DepthQueries,
	}
	for op, want := range opChecks {
		got, ok := sc.Value("oracle_queries_total", map[string]string{"op": op})
		if want == 0 && !ok {
			continue // series never minted — consistent with a zero counter
		}
		if got != float64(want) {
			t.Errorf("oracle_queries_total{op=%q} = %v, Stats says %d", op, got, want)
		}
	}
}

// TestOracleWarmServeZeroAllocsRecorded extends the warm-path pin to the
// full flight-recorder configuration: a traced query with a live root
// span, answered from a resident curve and offered to the recorder,
// still allocates nothing — the acceptance bar for leaving recording on
// in production.
func TestOracleWarmServeZeroAllocsRecorded(t *testing.T) {
	o := New(8)
	o.Instrument(telemetry.New())
	if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 64); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Capacity: 64, SampleRate: 0.5})
	tr := telemetry.NewTrace("")
	root := tr.StartSpan("request", telemetry.SpanRef{})
	defer root.End()
	ctx := telemetry.WithTrace(context.Background(), tr)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := o.SettlementFailureCtx(ctx, 0.2, 0.4, 64); err != nil {
			t.Fatal(err)
		}
		rec.Record(tr)
	})
	if allocs != 0 {
		t.Fatalf("warm recorded serve: %v allocs/op, want 0", allocs)
	}
	if kept, dropped := rec.Stats(); kept+dropped != 501 {
		t.Fatalf("recorder saw %d+%d offers, want 501", kept, dropped)
	}
}

// TestClusterInstrumentRegistersPerPeer checks the replication tier's
// families appear per peer, with breaker gauges starting closed.
func TestClusterInstrumentRegistersPerPeer(t *testing.T) {
	srv := NewServer(New(8), 1)
	c := NewCluster(srv, ClusterConfig{
		Self:  "http://a:1",
		Peers: []string{"http://a:1", "http://b:2", "http://c:3"},
	})
	reg := telemetry.New()
	c.Instrument(reg)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"http://b:2", "http://c:3"} {
		if got, ok := sc.Value("cluster_breaker_state", map[string]string{"peer": peer}); !ok || got != 0 {
			t.Errorf("breaker gauge for %s = %v (present=%v), want closed (0)", peer, got, ok)
		}
	}
	if _, ok := sc.Value("cluster_breaker_state", map[string]string{"peer": "http://a:1"}); ok {
		t.Error("self must not get a breaker gauge")
	}

	// Exercise a breaker transition and re-scrape.
	br := &c.remote["http://b:2"].brk
	for i := 0; i < 10; i++ {
		br.failure()
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err = telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sc.Value("cluster_breaker_state", map[string]string{"peer": "http://b:2"}); got != 2 {
		t.Errorf("opened breaker gauge = %v, want 2", got)
	}
}

// bootFromDamagedSnapshot loads into o a snapshot of a warm oracle with
// one section's payload corrupted, so the load both installs entries and
// quarantines a section.
func bootFromDamagedSnapshot(t *testing.T, o *Oracle) {
	t.Helper()
	data := snapshotBytes(t, warmOracle(t, 20))
	for pos := len(data) / 2; pos < len(data); pos++ {
		mut := bytes.Clone(data)
		mut[pos] ^= 0x10
		stats, err := New(0).LoadSnapshot(bytes.NewReader(mut))
		if err != nil || stats.Quarantined == 0 || stats.Entries == 0 {
			continue
		}
		if stats, err = o.LoadSnapshot(bytes.NewReader(mut)); err != nil || stats.Quarantined == 0 || stats.Entries == 0 {
			t.Fatalf("damaged warm boot: %+v, %v", stats, err)
		}
		return
	}
	t.Fatal("no single-byte flip both installs entries and quarantines a section")
}

// failingCluster fronts o with a two-replica cluster whose only peer
// never answers. A forward of a k=20 query fails at once, so it is
// retried and then answered by local fallback; any other forward hangs
// until the hedged local compute wins and cancels it.
func failingCluster(t *testing.T, o *Oracle) *Cluster {
	t.Helper()
	c := NewCluster(NewServer(o, 1), ClusterConfig{
		Self:  "http://self:1",
		Peers: []string{"http://self:1", "http://peer:2"},
	})
	c.client.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Query().Get("k") != "20" {
			<-r.Context().Done()
		}
		return nil, errors.New("peer down")
	})
	c.hedgeAfter = 50 * time.Millisecond
	c.retryBase, c.retryCap = time.Millisecond, time.Millisecond
	c.maxAttempts = 2
	c.remote["http://peer:2"].brk.threshold = 1 << 20
	return c
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// driveFailingForwards sends c queries owned by its dead peer — k=20
// ones end in local fallback, k=21 ones in a won hedge — plus
// loop-marked ones it must answer locally.
func driveFailingForwards(t *testing.T, c *Cluster) {
	t.Helper()
	sent := 0
	for bp := 1000; bp < 1256 && sent < 2; bp++ {
		alpha := float64(bp) / 1e4
		probe := httptest.NewRequest("GET", fmt.Sprintf("/v1/cell?alpha=%g&frac=0.5&k=20", alpha), nil)
		if _, key, ok := routedQuery(probe); !ok || c.owner(key) == c.self {
			continue
		}
		for _, k := range []int{20, 21} {
			url := fmt.Sprintf("/v1/cell?alpha=%g&frac=0.5&k=%d", alpha, k)
			rec := httptest.NewRecorder()
			c.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", url, rec.Code)
			}
			loop := httptest.NewRequest("GET", url, nil)
			loop.Header.Set(clusterForwardHeader, "http://peer:2")
			c.ServeHTTP(httptest.NewRecorder(), loop)
		}
		sent++
	}
	if sent == 0 {
		t.Fatal("no query hashed to the peer")
	}
}

// TestLatticeStepCounts pins the lattice work of each query kind on the
// oracle_lattice_steps_total counters, which do not move with the host's
// speed. A cold failure at k = 200 runs rung 256 alone: 128 replayed
// steps, then the 72 horizons 129..200 it stores. A cold curve at 200
// walks the whole ladder 16…256: 200 published, 240 replayed. Filling the
// first point's curve to 200 then runs only the rungs below 129. A cold
// depth search sweeps to the next power of two at or above its answer.
func TestLatticeStepCounts(t *testing.T) {
	o := New(8)
	reg := telemetry.New()
	o.Instrument(reg)
	steps := func() (pub, rep int64) {
		st := o.Stats()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		sc, err := telemetry.ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		mp, _ := sc.Value("oracle_lattice_steps_total", map[string]string{"kind": "published"})
		mr, _ := sc.Value("oracle_lattice_steps_total", map[string]string{"kind": "replayed"})
		if mp != float64(st.LatticePublished) || mr != float64(st.LatticeReplayed) {
			t.Fatalf("/metrics steps %v/%v, Stats %d/%d", mp, mr, st.LatticePublished, st.LatticeReplayed)
		}
		return st.LatticePublished, st.LatticeReplayed
	}
	expect := func(what string, wantPub, wantRep int64) {
		t.Helper()
		if pub, rep := steps(); pub != wantPub || rep != wantRep {
			t.Fatalf("after %s: %d published, %d replayed steps; want %d, %d", what, pub, rep, wantPub, wantRep)
		}
	}
	if _, err := o.SettlementFailureCtx(ctx, 0.30, 0.35, 200); err != nil {
		t.Fatal(err)
	}
	expect("a cold failure at k = 200", 72, 128)
	if _, err := o.SettlementCurveCtx(ctx, 0.25, 0.375, 200); err != nil {
		t.Fatal(err)
	}
	expect("a cold curve at k = 200", 72+200, 128+240)
	if _, err := o.SettlementCurveCtx(ctx, 0.30, 0.35, 200); err != nil {
		t.Fatal(err)
	}
	expect("the first point's curve at k = 200", 72+200+128, 128+240+112)
	for _, k := range []int{1, 100, 150, 200} {
		if _, err := o.SettlementFailureCtx(ctx, 0.30, 0.35, k); err != nil {
			t.Fatal(err)
		}
	}
	expect("warm failures", 72+200+128, 128+240+112)

	d, err := o.ConfirmationDepthCtx(ctx, 0.20, 0.4, 1e-4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	span := int64(16)
	for span < int64(d) {
		span *= 2
	}
	expect(fmt.Sprintf("a cold depth search answering %d", d), 72+200+128+span, 128+240+112)
	if st := o.Stats(); st.Builds != 3 || st.Extends != 1 {
		t.Fatalf("%d builds, %d extends; want 3 and 1 (one per search, not per doubling)", st.Builds, st.Extends)
	}
}
