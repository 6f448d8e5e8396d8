package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"multihonest/internal/telemetry"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// getJSON fetches url and decodes the body into out, failing the test on
// transport errors and asserting the expected status.
func getJSON(t *testing.T, client *http.Client, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
}

// TestServerEndpoints: every GET endpoint answers with the oracle's value
// and the canonical coordinates; malformed queries get a 400 JSON error.
func TestServerEndpoints(t *testing.T) {
	o := New(0)
	ts := httptest.NewServer(NewServer(o, 2).Handler())
	defer ts.Close()
	c := ts.Client()

	var cell struct {
		Alpha float64 `json:"alpha"`
		Frac  float64 `json:"frac"`
		K     int     `json:"k"`
		P     float64 `json:"p"`
	}
	getJSON(t, c, ts.URL+"/v1/cell?alpha=0.30&frac=0.25&k=60", http.StatusOK, &cell)
	want, err := o.TableCellCtx(ctx, 0.25, 60, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if cell.P != want || cell.Alpha != 0.30 || cell.Frac != 0.25 || cell.K != 60 {
		t.Fatalf("cell response %+v, want p=%g", cell, want)
	}

	var curve struct {
		Curve []float64 `json:"curve"`
	}
	getJSON(t, c, ts.URL+"/v1/curve?alpha=0.30&frac=0.25&k=60", http.StatusOK, &curve)
	if len(curve.Curve) != 60 || curve.Curve[59] != want {
		t.Fatalf("curve endpoint disagrees with cell: %v vs %g", curve.Curve[59:], want)
	}

	var failure struct {
		P float64 `json:"p"`
	}
	getJSON(t, c, ts.URL+"/v1/failure?alpha=0.30&ph=0.175&k=60", http.StatusOK, &failure)
	if failure.P != want {
		t.Fatalf("failure %g, want %g (ph and frac spellings must agree)", failure.P, want)
	}

	var bracket struct {
		Lower float64 `json:"lower"`
		Upper float64 `json:"upper"`
	}
	getJSON(t, c, ts.URL+"/v1/bracket?alpha=0.30&frac=0.25&k=60&tau=1e-30", http.StatusOK, &bracket)
	if !(bracket.Lower <= want && want <= bracket.Upper) {
		t.Fatalf("bracket [%g, %g] misses exact %g", bracket.Lower, bracket.Upper, want)
	}

	var depth struct {
		Depth int `json:"depth"`
	}
	getJSON(t, c, ts.URL+"/v1/depth?alpha=0.25&frac=0.5&target=1e-6&kmax=4096", http.StatusOK, &depth)
	wantD, err := o.ConfirmationDepthCtx(ctx, 0.25, 0.5*(1-0.25), 1e-6, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if depth.Depth != wantD || depth.Depth < 1 {
		t.Fatalf("depth %d, want %d", depth.Depth, wantD)
	}

	for _, bad := range []string{
		"/v1/cell?frac=0.25&k=60",                                // missing alpha
		"/v1/curve?alpha=0.30&k=60",                              // missing ph and frac
		"/v1/curve?alpha=0.30&ph=0.1&frac=0.5&k=9",               // both ph and frac
		"/v1/curve?alpha=0.30&frac=0.25&k=zero",                  // unparseable k
		"/v1/failure?alpha=0.80&ph=0.1&k=60",                     // out of domain
		"/v1/depth?alpha=0.25&frac=0.5&target=2&kmax=10",         // bad target
		"/v1/curve?alpha=0.30&frac=0.25&k=1000000000",            // k beyond service bound
		"/v1/depth?alpha=0.25&frac=0.5&target=1e-6&kmax=2000000", // kmax beyond bound
	} {
		var e struct {
			Error string `json:"error"`
		}
		getJSON(t, c, ts.URL+bad, http.StatusBadRequest, &e)
		if e.Error == "" {
			t.Errorf("%s: empty error body", bad)
		}
	}

	// An unreachable target at a slow-decay point (α = 0.45: rate Θ(ǫ³) ~
	// 1e-3) is a semantic 422 with a machine-readable code, not a 400.
	var unreach struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	getJSON(t, c, ts.URL+"/v1/depth?alpha=0.45&frac=0.5&target=1e-9&kmax=64", http.StatusUnprocessableEntity, &unreach)
	if unreach.Code != "target_unreachable" || unreach.Error == "" {
		t.Fatalf("unreachable-target response %+v", unreach)
	}
}

// TestServerHealthzAndVars: the liveness probe answers, /metrics reports
// the cache state the traffic created, and the retired /debug/vars and
// /healthz routes are gone.
func TestServerHealthzAndVars(t *testing.T) {
	o := New(0)
	reg := telemetry.New()
	o.Instrument(reg)
	mux := http.NewServeMux()
	mux.Handle("/", NewServer(o, 2).Handler())
	mux.Handle("/metrics", reg.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := ts.Client()

	getJSON(t, c, ts.URL+"/v1/cell?alpha=0.25&frac=0.5&k=40", http.StatusOK, nil)
	getJSON(t, c, ts.URL+"/v1/cell?alpha=0.25&frac=0.5&k=40", http.StatusOK, nil)

	var h struct {
		Status string `json:"status"`
	}
	getJSON(t, c, ts.URL+"/healthz/live", http.StatusOK, &h)
	if h.Status != "alive" {
		t.Fatalf("healthz/live %+v", h)
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"oracle_cache_entries", nil, 1},
		{"oracle_cache_hits_total", nil, 1},
		{"oracle_cache_misses_total", nil, 1},
		{"oracle_queries_total", map[string]string{"op": "cell"}, 2},
		{"oracle_snapshot_saves_total", nil, 0},
		{"oracle_snapshot_loaded_total", nil, 0},
		{"oracle_snapshot_quarantined_sections_total", nil, 0},
	} {
		if got, ok := sc.Value(m.name, m.labels); !ok || got != m.want {
			t.Errorf("/metrics %s%v = %v (present=%v), want %v", m.name, m.labels, got, ok, m.want)
		}
	}

	for _, retired := range []string{"/debug/vars", "/healthz"} {
		getJSON(t, c, ts.URL+retired, http.StatusNotFound, nil)
	}
}

// TestServerBatch: the batch endpoint plans groups, preserves request
// order, and isolates per-query errors.
func TestServerBatch(t *testing.T) {
	o := New(0)
	ts := httptest.NewServer(NewServer(o, 2).Handler())
	defer ts.Close()

	frac := 0.5
	body, err := json.Marshal(batchRequest{Queries: []BatchQuery{
		{Op: "cell", Alpha: 0.25, Frac: &frac, K: 50},
		{Op: "cell", Alpha: 0.25, Frac: &frac, K: 30},
		{Op: "cell", Alpha: 0.30, Frac: &frac, K: 50},
		{Op: "nope", Alpha: 0.25, Frac: &frac, K: 50},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Plan    BatchPlan     `json:"plan"`
		Results []BatchResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Plan.Groups != 2 || out.Plan.Queries != 4 || out.Plan.MaxK != 50 {
		t.Fatalf("plan %+v", out.Plan)
	}
	want, _ := o.TableCellCtx(ctx, frac, 50, 0.25)
	if out.Results[0].P == nil || *out.Results[0].P != want {
		t.Fatalf("batch result 0 = %v, want %g", out.Results[0].P, want)
	}
	if out.Results[3].Error == "" {
		t.Fatal("unknown op must fail in its slot")
	}

	// Malformed body and empty batch are 400s.
	for _, bad := range []string{"{", `{"queries":[]}`} {
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// benchKey is one parameter point of the serve-benchmark key universe:
// grid-exact coordinates with a fixed per-key horizon, the regime where
// cached answers are byte-identical to the uncached path (matching cap
// geometry). BenchmarkOracleServe at the repo root uses the same
// construction.
type benchKey struct {
	alpha, ph float64
	k         int
}

// serveBenchKeys builds the deterministic zipf key universe of the serve
// benchmark: the Table-1 (α, frac) grid with spread horizons.
func serveBenchKeys() []benchKey {
	alphas := []float64{0.10, 0.20, 0.25, 0.30, 0.40, 0.49}
	fracs := []float64{1.0, 0.9, 0.5, 0.25, 0.1, 0.01}
	keys := make([]benchKey, 0, len(alphas)*len(fracs))
	for i, frac := range fracs {
		for j, alpha := range alphas {
			keys = append(keys, benchKey{
				alpha: alpha,
				ph:    frac * (1 - alpha),
				k:     40 + 20*((i*len(alphas)+j)%8),
			})
		}
	}
	return keys
}

// TestOracleServeEquivalence replays the benchmark's hot zipfian query mix
// (fixed horizon per key, so cap geometry matches the uncached reference)
// and pins every served answer byte-identical to the uncached
// core.Analyzer path.
func TestOracleServeEquivalence(t *testing.T) {
	o := New(0)
	keys := serveBenchKeys()
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(keys)-1))
	for i := 0; i < 200; i++ {
		key := keys[zipf.Uint64()]
		got, err := o.SettlementFailureCtx(ctx, key.alpha, key.ph, key.k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mustAnalyzer(t, key.alpha, key.ph).SettlementFailure(key.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d (α=%v ph=%v k=%d): oracle %.17g, analyzer %.17g",
				i, key.alpha, key.ph, key.k, got, want)
		}
	}
	if st := o.Stats(); st.Builds != int64(st.Entries) {
		t.Fatalf("hot serving rebuilt chains: %+v", st)
	}
}

// TestServerConcurrentTraffic hammers one server from many clients under
// -race: mixed endpoints, overlapping keys.
func TestServerConcurrentTraffic(t *testing.T) {
	o := New(8)
	ts := httptest.NewServer(NewServer(o, 2).Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20; i++ {
				alpha := []float64{0.10, 0.25, 0.30}[rng.Intn(3)]
				k := 20 + rng.Intn(60)
				url := fmt.Sprintf("%s/v1/cell?alpha=%g&frac=0.5&k=%d", ts.URL, alpha, k)
				resp, err := ts.Client().Get(url)
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
