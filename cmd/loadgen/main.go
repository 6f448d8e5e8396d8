// Command loadgen drives a running settlement-oracle service (cmd/serve)
// with a zipfian-skewed query mix and reports achieved throughput and
// latency percentiles. The skewed key popularity is the oracle's intended
// regime: a small hot set of parameter points that should be answered from
// cached curves after one cold build each.
//
// Usage:
//
//	loadgen [-url http://127.0.0.1:8080] [-duration 5s] [-concurrency 8]
//	        [-keys 64] [-skew 1.2] [-kmax 400] [-ops cell,curve,failure,depth,bracket]
//	        [-seed 1] [-json] [-verify 0] [-scrape] [-traces]
//	        [-chaos -serve-bin ./serve] [-min-success 0.99] [-diagdir dir]
//
// With -verify F, a fraction F of completed requests is sampled and each
// sampled query replayed through a cold in-process oracle server; a
// status or body that differs by one byte fails the run. The encoder
// prints every float exactly, so equal bodies mean bitwise-equal answers.
// Wrong answers are never tolerated, at any error rate.
//
// With -scrape, loadgen reads the target's /metrics before and after the
// run and folds the server's own view of the window into the report:
// request count and p50/p99 from the service-side latency histogram
// (free of client/network overhead), cache hit/miss/coalesce counts, and
// the cluster's forward/hedge/retry/fallback counters. Every request
// carries a fresh X-Multihonest-Trace ID, so any failure reported here
// can be grepped in the server's structured logs by trace.
//
// With -traces, loadgen reads every target's flight recorder
// (/debug/traces) after the run, picks the slowest recorded request,
// and reports its full span tree — queue, coalesce_wait, build, extend,
// forward with per-attempt and hedge children, serialize — indented on
// stdout (and as .slowest_trace in the -json report). The latency tail
// the percentiles summarize becomes one concrete, named request.
//
// With -chaos, loadgen owns the topology: it spawns a 2-replica cluster
// from -serve-bin, drives load at the survivor, SIGKILLs the victim
// replica mid-run, restarts it on its snapshot, and waits for readiness
// — then asserts availability: the success rate must be at least
// -min-success (default 0.99) even though a replica died with queries
// sharded onto it. Replication must make the kill cost latency, not
// availability, and -verify makes it provably not cost correctness.
// -diagdir additionally arms each replica's anomaly watchdog with a
// per-replica directory under it; bundle directories written during the
// run (the survivor's breaker opening against the killed victim is the
// expected trigger) land in the report as .chaos.diag_bundles.
//
// The exit status is the smoke contract for CI: non-zero when no
// request completed, the success rate misses the bar (plain runs demand
// zero errors), any verified answer mismatches, or the victim never
// recovered.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"multihonest/internal/oracle"
	"multihonest/internal/telemetry"
)

// logger is the structured log sink; chaos replicas inherit the same
// stderr, so their slog lines interleave with ours and share trace IDs.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "loadgen")

// point is one parameter point of the key universe.
type point struct {
	alpha, frac float64
}

// sample is one completed request retained for offline verification:
// the request path and query, and the status and body it was served.
type sample struct {
	path   string
	status int
	body   []byte
}

// result aggregates one worker's traffic.
type result struct {
	latencies []float64 // seconds
	errors    int
	firstErr  error
	samples   []sample
}

// chaosReport is the -chaos section of the summary. RestartToReadyMS is
// read from the restarted victim's serve_boot_to_ready_seconds gauge —
// the server's own boot-to-ready measurement, free of the harness's
// 20ms readiness-poll quantization; Source records which clock produced
// it ("gauge", or "client" when the victim's /metrics was unreachable).
type chaosReport struct {
	KilledAtSec      float64  `json:"killed_at_sec"`
	DownSec          float64  `json:"down_sec"`
	RestartToReadyMS float64  `json:"restart_to_ready_ms"`
	Source           string   `json:"restart_to_ready_source"`
	DiagBundles      []string `json:"diag_bundles,omitempty"`
}

// scrapeReport is the -scrape section of the summary: the delta of the
// server's own counters over the measurement window, plus windowed
// latency quantiles from the service-side histogram.
type scrapeReport struct {
	ServerRequests float64 `json:"server_requests"`
	ServerP50MS    float64 `json:"server_p50_ms"`
	ServerP99MS    float64 `json:"server_p99_ms"`
	CacheHits      float64 `json:"cache_hits"`
	CacheMisses    float64 `json:"cache_misses"`
	CoalescedWaits float64 `json:"coalesced_waits"`
	Forwards       float64 `json:"forwards"`
	ForwardRetries float64 `json:"forward_retries"`
	Hedges         float64 `json:"hedges"`
	LocalFallbacks float64 `json:"local_fallbacks"`
	OpenBreakers   float64 `json:"open_breakers"`
}

// summary is the emitted report.
type summary struct {
	URL         string        `json:"url"`
	DurationSec float64       `json:"duration_sec"`
	Concurrency int           `json:"concurrency"`
	Keys        int           `json:"keys"`
	Skew        float64       `json:"skew"`
	Ops         string        `json:"ops"`
	Requests    int           `json:"requests"`
	Errors      int           `json:"errors"`
	SuccessRate float64       `json:"success_rate"`
	Verified    int           `json:"verified"`
	Mismatches  int           `json:"verify_mismatches"`
	QPS         float64       `json:"qps"`
	P50MS       float64       `json:"p50_ms"`
	P90MS       float64       `json:"p90_ms"`
	P99MS       float64       `json:"p99_ms"`
	MaxMS       float64       `json:"max_ms"`
	Chaos       *chaosReport  `json:"chaos,omitempty"`
	Scrape      *scrapeReport `json:"scrape,omitempty"`

	// SlowestTrace is the -traces result: the slowest request the
	// targets' flight recorders retained, full span tree included.
	SlowestTrace *telemetry.TraceSnapshot `json:"slowest_trace,omitempty"`
}

// maxVerifySamples bounds the offline recompute pass.
const maxVerifySamples = 256

// teardown, when set, kills the -chaos topology. Every fatal exit must
// run it: an orphaned replica inherits our stderr and holds the pipe
// open, wedging whatever is capturing the run's output (CI, a shell
// pipeline) long after loadgen itself has died.
var teardown func()

// fatal logs one structured error line, tears the topology down, and
// exits non-zero.
func fatal(msg string, args ...any) {
	if teardown != nil {
		teardown()
	}
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	baseURL := flag.String("url", "http://127.0.0.1:8080", "oracle base URL (ignored with -chaos)")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	keys := flag.Int("keys", 64, "size of the parameter-point universe")
	skew := flag.Float64("skew", 1.2, "zipf exponent s > 1 (larger = hotter hot set)")
	kmax := flag.Int("kmax", 400, "largest horizon / depth-search bound")
	ops := flag.String("ops", "cell,curve,failure,depth,bracket", "comma-separated op mix")
	seed := flag.Int64("seed", 1, "key-universe and traffic seed")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	verify := flag.Float64("verify", 0, "fraction of answers replayed on a cold local oracle server and compared byte for byte")
	scrape := flag.Bool("scrape", false, "scrape the target's /metrics around the run and fold server-side latency and cluster counters into the report")
	traces := flag.Bool("traces", false, "pull the targets' flight recorders after the run and report the slowest request's span tree")
	chaos := flag.Bool("chaos", false, "spawn a 2-replica cluster and kill/restart one mid-run")
	serveBin := flag.String("serve-bin", "", "path to the serve binary (-chaos only)")
	minSuccess := flag.Float64("min-success", 0.99, "required success rate under -chaos")
	diagdir := flag.String("diagdir", "", "arm each -chaos replica's anomaly watchdog under this directory")
	flag.Parse()

	if *concurrency < 1 || *keys < 1 || *skew <= 1 || *kmax < 2 {
		fatal("invalid flags", "concurrency", *concurrency, "keys", *keys, "skew", *skew, "kmax", *kmax)
	}
	if *verify < 0 || *verify > 1 {
		fatal("-verify outside [0,1]", "verify", *verify)
	}

	var chaosRep *chaosReport
	chaosc := make(chan *chaosReport, 1)
	target := *baseURL
	traceTargets := []string{target}
	if *chaos {
		if *serveBin == "" {
			fatal("-chaos requires -serve-bin")
		}
		// Tear down from the first launch on: a replica that fails to
		// boot must not orphan the one already running.
		cl := &cluster{bin: *serveBin, diagdir: *diagdir}
		teardown = cl.stop
		defer cl.stop()
		cl.start()
		target = cl.survivorURL()
		traceTargets = cl.urls
		go func() {
			chaosc <- cl.killRestartCycle(*duration)
		}()
	}

	opList := strings.Split(*ops, ",")
	universe := makeUniverse(*keys, *seed)

	client := &http.Client{Timeout: 30 * time.Second}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t2 := t.Clone()
		t2.MaxIdleConnsPerHost = *concurrency
		client.Transport = t2
	}

	var before *telemetry.Scrape
	if *scrape {
		var err error
		if before, err = scrapeMetrics(client, target); err != nil {
			logger.Warn("pre-run /metrics scrape failed; -scrape disabled", "err", err)
			*scrape = false
		}
	}

	deadline := time.Now().Add(*duration)
	results := make([]result, *concurrency)
	var sampled atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			zipf := rand.NewZipf(rng, *skew, 1, uint64(len(universe)-1))
			res := &results[w]
			for time.Now().Before(deadline) {
				p := universe[zipf.Uint64()]
				op := opList[rng.Intn(len(opList))]
				path := queryPath(op, p, rng, *kmax)
				trace := telemetry.NewTraceID()
				t0 := time.Now()
				status, body, err := get(client, target+path, trace)
				res.latencies = append(res.latencies, time.Since(t0).Seconds())
				if err != nil {
					res.errors++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("%s%s (trace %s): %w", target, path, trace, err)
					}
					continue
				}
				if *verify > 0 && rng.Float64() < *verify && sampled.Add(1) <= maxVerifySamples {
					res.samples = append(res.samples, sample{path: path, status: status, body: body})
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var scrapeRep *scrapeReport
	if *scrape {
		after, err := scrapeMetrics(client, target)
		if err != nil {
			logger.Warn("post-run /metrics scrape failed", "err", err)
		} else {
			scrapeRep = foldScrapes(before, after)
		}
	}

	if *chaos {
		// The cycle finishes at the halfway mark plus the victim's ready
		// wait; a stuck restart fatals inside the goroutine (with its own
		// 15s bound), so this wait cannot hang.
		select {
		case chaosRep = <-chaosc:
		case <-time.After(30 * time.Second):
		}
		if chaosRep != nil && *diagdir != "" {
			chaosRep.DiagBundles = findBundles(*diagdir)
		}
	}

	var slowest *telemetry.TraceSnapshot
	if *traces {
		slowest = fetchSlowestTrace(client, traceTargets)
		if slowest == nil {
			logger.Warn("no recorded request trace on any target; is its flight recorder sampling?")
		}
	}

	var all []float64
	total, errs := 0, 0
	var firstErr error
	var samples []sample
	for i := range results {
		all = append(all, results[i].latencies...)
		total += len(results[i].latencies)
		errs += results[i].errors
		samples = append(samples, results[i].samples...)
		if firstErr == nil {
			firstErr = results[i].firstErr
		}
	}
	sort.Float64s(all)

	verified, mismatches, firstMismatch := verifySamples(samples)

	s := summary{
		URL:         target,
		DurationSec: elapsed.Seconds(),
		Concurrency: *concurrency,
		Keys:        *keys,
		Skew:        *skew,
		Ops:         *ops,
		Requests:    total,
		Errors:      errs,
		Verified:    verified,
		Mismatches:  mismatches,
		P50MS:       percentile(all, 0.50) * 1e3,
		P90MS:       percentile(all, 0.90) * 1e3,
		P99MS:       percentile(all, 0.99) * 1e3,
		MaxMS:       percentile(all, 1) * 1e3,
		Chaos:       chaosRep,
		Scrape:      scrapeRep,

		SlowestTrace: slowest,
	}
	if elapsed > 0 {
		s.QPS = float64(total) / elapsed.Seconds()
	}
	if total > 0 {
		s.SuccessRate = float64(total-errs) / float64(total)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fatal("encoding report", "err", err)
		}
	} else {
		fmt.Printf("%d requests in %.2fs (%d workers, %d keys, zipf %.2f): %.0f qps, success %.4f\n",
			s.Requests, s.DurationSec, s.Concurrency, s.Keys, s.Skew, s.QPS, s.SuccessRate)
		fmt.Printf("latency p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms  errors %d  verified %d\n",
			s.P50MS, s.P90MS, s.P99MS, s.MaxMS, s.Errors, s.Verified)
		if scrapeRep != nil {
			fmt.Printf("server: %.0f reqs, p50 %.3fms  p99 %.3fms;  cache hit/miss/coalesce %.0f/%.0f/%.0f\n",
				scrapeRep.ServerRequests, scrapeRep.ServerP50MS, scrapeRep.ServerP99MS,
				scrapeRep.CacheHits, scrapeRep.CacheMisses, scrapeRep.CoalescedWaits)
			fmt.Printf("cluster: forwards %.0f  hedges %.0f  retries %.0f  fallbacks %.0f  open breakers %.0f\n",
				scrapeRep.Forwards, scrapeRep.Hedges, scrapeRep.ForwardRetries,
				scrapeRep.LocalFallbacks, scrapeRep.OpenBreakers)
		}
		if chaosRep != nil {
			fmt.Printf("chaos: victim killed at %.2fs, down %.2fs, restart-to-ready %.1fms (%s)\n",
				chaosRep.KilledAtSec, chaosRep.DownSec, chaosRep.RestartToReadyMS, chaosRep.Source)
			for _, b := range chaosRep.DiagBundles {
				fmt.Printf("chaos: diagnostics bundle %s\n", b)
			}
		}
		if slowest != nil {
			printSpanTree(slowest)
		}
	}

	// Smoke contract. Correctness is absolute: one bitwise mismatch fails
	// the run no matter how available the cluster was.
	if total == 0 {
		fatal("no request completed")
	}
	if mismatches > 0 {
		fatal("verified answers differ from the local cold replay",
			"mismatches", mismatches, "verified", verified, "first", firstMismatch)
	}
	if *chaos {
		if chaosRep == nil {
			fatal("chaos cycle did not complete (victim never restarted)")
		}
		if s.SuccessRate < *minSuccess {
			fatal("success rate below -min-success",
				"success_rate", s.SuccessRate, "min_success", *minSuccess, "first_err", firstErr)
		}
	} else if errs > 0 {
		fatal("requests failed", "errors", errs, "total", total, "first_err", firstErr)
	}
}

// scrapeMetrics reads and parses the target's /metrics endpoint.
func scrapeMetrics(client *http.Client, base string) (*telemetry.Scrape, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	return telemetry.ParseText(io.LimitReader(resp.Body, 1<<22))
}

// foldScrapes reduces the before/after pair to the measurement window:
// counter deltas, and p50/p99 of the requests the window added to the
// service-side duration histogram. Breaker state is a gauge, so it is
// read from the closing scrape alone.
func foldScrapes(before, after *telemetry.Scrape) *scrapeReport {
	delta := func(name string) float64 {
		return after.SumFunc(name, nil) - before.SumFunc(name, nil)
	}
	window := telemetry.DeltaBuckets(
		before.Buckets("serve_http_request_duration_seconds", nil),
		after.Buckets("serve_http_request_duration_seconds", nil))
	rep := &scrapeReport{
		ServerRequests: delta("serve_http_request_duration_seconds_count"),
		ServerP50MS:    telemetry.QuantileFromBuckets(window, 0.50) * 1e3,
		ServerP99MS:    telemetry.QuantileFromBuckets(window, 0.99) * 1e3,
		CacheHits:      delta("oracle_cache_hits_total"),
		CacheMisses:    delta("oracle_cache_misses_total"),
		CoalescedWaits: delta("oracle_coalesced_waits_total"),
		Forwards:       delta("cluster_forwards_total"),
		ForwardRetries: delta("cluster_forward_retries_total"),
		Hedges:         delta("cluster_hedges_total"),
		LocalFallbacks: delta("cluster_local_fallbacks_total"),
	}
	for _, smp := range after.Samples {
		if smp.Name == "cluster_breaker_state" && smp.Value == 2 {
			rep.OpenBreakers++
		}
	}
	return rep
}

// fetchSlowestTrace reads every target's flight recorder and returns
// the slowest retained request trace (operational traces — snapshot
// loads and saves — are skipped: the question -traces answers is
// "what did the worst *request* spend its time on").
func fetchSlowestTrace(client *http.Client, bases []string) *telemetry.TraceSnapshot {
	var slowest *telemetry.TraceSnapshot
	for _, base := range bases {
		resp, err := client.Get(base + "/debug/traces")
		if err != nil {
			logger.Warn("trace scrape failed", "target", base, "err", err)
			continue
		}
		var list telemetry.TraceList
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<24)).Decode(&list)
		resp.Body.Close()
		if err != nil {
			logger.Warn("trace scrape undecodable", "target", base, "err", err)
			continue
		}
		for i := range list.Traces {
			ts := &list.Traces[i]
			if len(ts.Spans) == 0 || ts.Spans[0].Name != "request" {
				continue
			}
			if slowest == nil || ts.DurNS > slowest.DurNS {
				slowest = ts
			}
		}
	}
	return slowest
}

// printSpanTree renders one recorded trace as an indented tree, children
// under parents in arena (start) order, with per-span attrs inline.
func printSpanTree(ts *telemetry.TraceSnapshot) {
	fmt.Printf("slowest recorded request: trace %s, %.3fms", ts.ID, float64(ts.DurNS)/1e6)
	if len(ts.Flags) > 0 {
		fmt.Printf(", flags %s", strings.Join(ts.Flags, ","))
	}
	fmt.Println()
	children := make(map[int][]int)
	for i, sp := range ts.Spans {
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		sp := ts.Spans[idx]
		fmt.Printf("  %s%-14s %9.3fms", strings.Repeat("  ", depth), sp.Name, float64(sp.DurNS)/1e6)
		if sp.Value != 0 {
			fmt.Printf("  value=%d", sp.Value)
		}
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%s", k, sp.Attrs[k])
		}
		fmt.Println()
		for _, c := range children[idx] {
			walk(c, depth+1)
		}
	}
	for _, root := range children[-1] {
		walk(root, 0)
	}
	if ts.DroppedSpans > 0 {
		fmt.Printf("  (%d spans dropped: arena full)\n", ts.DroppedSpans)
	}
}

// findBundles lists the diagnostics bundle directories the -chaos
// replicas' watchdogs wrote (each holds a meta.json).
func findBundles(dir string) []string {
	metas, err := filepath.Glob(filepath.Join(dir, "*", "*", "meta.json"))
	if err != nil {
		return nil
	}
	bundles := make([]string, 0, len(metas))
	for _, m := range metas {
		bundles = append(bundles, filepath.Dir(m))
	}
	sort.Strings(bundles)
	return bundles
}

// makeUniverse draws the deterministic parameter-point universe: α and
// honest fraction on the oracle's basis-point grid, consistency-feasible.
func makeUniverse(n int, seed int64) []point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]point, n)
	for i := range pts {
		alpha := float64(100+rng.Intn(4801)) / 1e4 // [0.01, 0.49] in bp steps
		frac := float64(100+rng.Intn(9901)) / 1e4  // [0.01, 1.00]
		pts[i] = point{alpha: alpha, frac: frac}
	}
	return pts
}

// queryPath builds one request path and query against the point.
// Horizons are drawn hot: most queries reuse the deepest horizon so
// cached curves serve them without extension, a spread of shallower ones
// reads the same curve.
func queryPath(op string, p point, rng *rand.Rand, kmax int) string {
	k := kmax
	if rng.Intn(4) == 0 {
		k = 1 + rng.Intn(kmax)
	}
	switch op {
	case "depth":
		// Targets must be reachable inside the search bound: the certified
		// failure bound decays at Ω(min(ǫ³, ǫ²ph)) per slot, so points near
		// α = 1/2 need k ~ 10⁶ for small targets. Pick per α band; past
		// 0.40 a depth search this size cannot certify anything useful, so
		// fall through to the point query instead.
		if p.alpha <= 0.40 {
			target := 1e-2
			if p.alpha <= 0.30 {
				target = []float64{1e-4, 1e-6}[rng.Intn(2)]
			}
			return fmt.Sprintf("/v1/depth?alpha=%g&frac=%g&target=%g&kmax=%d",
				p.alpha, p.frac, target, max(16*kmax, 3200))
		}
	case "curve", "failure":
		return fmt.Sprintf("/v1/%s?alpha=%g&frac=%g&k=%d", op, p.alpha, p.frac, k)
	case "bracket":
		return fmt.Sprintf("/v1/bracket?alpha=%g&frac=%g&k=%d&tau=1e-30", p.alpha, p.frac, k)
	}
	return fmt.Sprintf("/v1/cell?alpha=%g&frac=%g&k=%d", p.alpha, p.frac, k)
}

// get issues one request carrying the given trace ID, draining the body
// so connections are reused. 422 (target_unreachable) is a valid
// semantic answer for depth queries at slow-decay parameter points, not
// a service failure.
func get(client *http.Client, url, trace string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(telemetry.TraceHeader, trace)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		return resp.StatusCode, nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp.StatusCode, body, nil
}

// verifySamples replays each sampled query through a cold in-process
// oracle server and compares status and body byte for byte — the
// cross-replica / snapshot / fallback identity contract.
func verifySamples(samples []sample) (verified, mismatches int, firstErr error) {
	if len(samples) == 0 {
		return 0, 0, nil
	}
	h := oracle.NewServer(oracle.New(0), 0).Handler()
	for _, s := range samples {
		verified++
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, s.path, nil))
		if rr.Code != s.status || !bytes.Equal(rr.Body.Bytes(), s.body) {
			mismatches++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: served %d %q, cold replay %d %q", s.path, s.status, s.body, rr.Code, rr.Body.Bytes())
			}
		}
	}
	return verified, mismatches, firstErr
}

// percentile reads the q-quantile from sorted samples (q = 1 is the max).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// cluster is the -chaos topology: two serve replicas sharing a peer
// map; replica 0 is the survivor taking the load, replica 1 the victim.
type cluster struct {
	bin     string
	dir     string
	diagdir string // arm replica watchdogs under here (empty = off)
	addrs   []string
	urls    []string
	procs   []*exec.Cmd
	done    []chan struct{} // closed when procs[i] is reaped
}

// start reserves two ports, boots both replicas, and waits until both
// are ready.
func (cl *cluster) start() {
	var err error
	cl.dir, err = os.MkdirTemp("", "loadgen-chaos-*")
	if err != nil {
		fatal("chaos scratch dir", "err", err)
	}
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal("reserving replica port", "err", err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cl.addrs = append(cl.addrs, addr)
		cl.urls = append(cl.urls, "http://"+addr)
	}
	cl.procs = make([]*exec.Cmd, 2)
	cl.done = make([]chan struct{}, 2)
	for i := 0; i < 2; i++ {
		cl.launch(i)
		cl.awaitReady(i, 15*time.Second)
	}
	logger.Info("chaos cluster up", "survivor", cl.urls[0], "victim", cl.urls[1])
}

// launch (re)starts replica i. The victim gets a snapshot so its
// restart is a warm boot.
func (cl *cluster) launch(i int) {
	args := []string{
		"-addr", cl.addrs[i],
		"-peers", strings.Join(cl.urls, ","),
		"-self", cl.urls[i],
		"-snapshot", filepath.Join(cl.dir, fmt.Sprintf("replica%d.mhsnap", i)),
		"-checkpoint", "1s",
		// Chaos is a diagnostic harness: record every request, so the
		// -traces report always has the slowest one.
		"-trace-sample", "1",
	}
	if cl.diagdir != "" {
		args = append(args,
			"-diagdir", filepath.Join(cl.diagdir, fmt.Sprintf("replica%d", i)))
	}
	cmd := exec.Command(cl.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatal("starting replica", "replica", i, "err", err)
	}
	cl.procs[i] = cmd
	done := make(chan struct{})
	cl.done[i] = done
	go func() { // reap; chaos kills are expected deaths
		_ = cmd.Wait()
		close(done)
	}()
}

// awaitReady polls replica i's readiness probe until it answers 200. A
// replica that exits first, or is not ready within timeout, is fatal.
func (cl *cluster) awaitReady(i int, timeout time.Duration) {
	deadline := time.After(timeout)
	for {
		resp, err := http.Get(cl.urls[i] + "/healthz/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case <-cl.done[i]:
			fatal("replica exited before it became ready", "replica", i, "url", cl.urls[i])
		case <-deadline:
			fatal("replica never became ready", "replica", i, "url", cl.urls[i])
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (cl *cluster) survivorURL() string { return cl.urls[0] }

// killRestartCycle SIGKILLs the victim a third into the run and
// restarts it at the halfway mark, returning the measured report. The
// restart-to-ready figure is the victim's own serve_boot_to_ready_seconds
// gauge; the harness-side poll measurement is the fallback when the
// restarted replica's /metrics cannot be read.
func (cl *cluster) killRestartCycle(duration time.Duration) *chaosReport {
	start := time.Now()
	killAt := duration / 3
	downFor := duration / 6

	time.Sleep(killAt)
	if err := cl.procs[1].Process.Kill(); err != nil {
		fatal("killing victim", "err", err)
	}
	killed := time.Since(start)
	logger.Info("chaos: victim killed", "at_sec", killed.Seconds())

	time.Sleep(downFor)
	restart := time.Now()
	cl.launch(1)
	cl.awaitReady(1, 15*time.Second)
	readyMS := float64(time.Since(restart).Microseconds()) / 1e3
	source := "client"
	if sc, err := scrapeMetrics(http.DefaultClient, cl.urls[1]); err == nil {
		if v, ok := sc.Value("serve_boot_to_ready_seconds", nil); ok && v > 0 {
			readyMS, source = v*1e3, "gauge"
		}
	}
	logger.Info("chaos: victim restarted", "ready_ms", readyMS, "source", source)

	return &chaosReport{
		KilledAtSec:      killed.Seconds(),
		DownSec:          downFor.Seconds(),
		RestartToReadyMS: readyMS,
		Source:           source,
	}
}

// stop tears the topology down and removes its scratch directory. It
// waits for every replica to exit, escalating SIGTERM to SIGKILL, so
// loadgen never leaves a process behind holding the inherited stderr.
func (cl *cluster) stop() {
	for _, p := range cl.procs {
		if p != nil && p.Process != nil {
			_ = p.Process.Signal(syscall.SIGTERM)
		}
	}
	for i, p := range cl.procs {
		if p == nil || cl.done[i] == nil {
			continue
		}
		select {
		case <-cl.done[i]:
		case <-time.After(15 * time.Second): // past serve's drain budget
			_ = p.Process.Kill()
			<-cl.done[i]
		}
	}
	_ = os.RemoveAll(cl.dir)
}
