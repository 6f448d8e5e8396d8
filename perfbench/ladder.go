package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"multihonest/internal/charstring"
	"multihonest/internal/mc"
	"multihonest/internal/oracle"
	"multihonest/internal/runner"
	"multihonest/internal/settlement"
	"multihonest/internal/telemetry"
	"multihonest/perfbench/jobs"
)

// Sizes of the per-layer measurements.
const (
	rungOps        = 2000 // serve-warm requests replayed through each rung
	rungPasses     = 5    // interleaved passes over every rung
	ladderChurnOps = 1500 // serve-churn ops behind the oracle /metrics deltas
	latticeKeys    = 16   // serve-churn miss keys built cold
	microReps      = 5    // repeats of each compute-layer timing
)

// traced is the per-layer run: the workload once untraced and once with
// spans recorded (their difference is the tracing overhead), then every
// layer measured on inputs drawn from the same seed.
func traced(env *env, workload string, seed int64, nOps int) (*result, error) {
	base, err := runWorkload(env, workload, seed, nOps, 1, nil)
	if base == nil || base.ph == nil {
		if err == nil {
			err = errors.New("no measurement")
		}
		return nil, err
	}
	res := &result{Correct: err == nil, Attempted: base.ph.ops, Failed: base.ph.failed, Metrics: map[string]metric{}}
	if err != nil {
		return res, err
	}
	tr := newTracer()
	run, err := runWorkload(env, workload, seed, nOps, 1, tr)
	if run == nil || run.ph == nil {
		return nil, err
	}
	res.Attempted += run.ph.ops
	res.Failed += run.ph.failed
	if err != nil {
		return res, err
	}
	m := res.Metrics
	m["bench.generator_cpu_ms_per_op"] = metric{float64(base.ph.genCPU) / 1e6 / float64(base.ph.ops), "ms"}
	m["bench.trace_overhead_pct"] = metric{100 * (run.ph.wall.Seconds()/base.ph.wall.Seconds() - 1), "%"}

	churn := base
	if workload != "serve-churn" {
		if churn, err = runWorkload(env, "serve-churn", seed, ladderChurnOps, 1, nil); err != nil {
			return nil, fmt.Errorf("serve-churn phase for the oracle counters: %w", err)
		}
	}
	oracleCounters(churn.served, m)

	root := tr.begin("ladder", -1, -1)
	err = errors.Join(
		rungs(env, seed, tr, root, m),
		latticeLayer(seed, tr, root, m),
		computeLayers(seed, tr, root, m),
	)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(env.work, "spans-"+workload+".csv")
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d spans written to %s\n", workload, seed, len(tr.spans), spans)
	tr.summary(os.Stderr)
	return res, nil
}

// oracleCounters derives the oracle's cache metrics from the /metrics
// deltas of a serve-churn measured phase.
func oracleCounters(sp *servedPhase, m map[string]metric) {
	d := func(name string) float64 { return delta(sp.before, sp.after, name) }
	ops := float64(sp.ops)
	hits, misses := d("oracle_cache_hits_total"), d("oracle_cache_misses_total")
	builds, extends := d("oracle_build_seconds_count"), d("oracle_extend_seconds_count")
	mean := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return 1e3 * sum / n
	}
	resident, _ := sp.after.Value("oracle_resident_curve_bytes", nil)
	m["oracle.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	m["oracle.builds_per_op"] = metric{builds / ops, "count"}
	m["oracle.extends_per_op"] = metric{extends / ops, "count"}
	m["oracle.evictions_per_op"] = metric{d("oracle_cache_evictions_total") / ops, "count"}
	m["oracle.coalesced_per_op"] = metric{d("oracle_coalesced_waits_total") / ops, "count"}
	m["oracle.build_ms_mean"] = metric{mean(d("oracle_build_seconds_sum"), builds), "ms"}
	m["oracle.extend_ms_mean"] = metric{mean(d("oracle_extend_seconds_sum"), extends), "ms"}
	m["oracle.resident_mb"] = metric{resident / (1 << 20), "MB"}
}

// sink is a reusable http.ResponseWriter that keeps the last body, so a
// rung measures the handler rather than a fresh recorder per request.
type sink struct {
	h      http.Header
	status int
	body   []byte
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(status int)      { s.status = status }
func (s *sink) Write(p []byte) (int, error) { s.body = append(s.body, p...); return len(p), nil }

func (s *sink) reset() {
	clear(s.h)
	s.status, s.body = http.StatusOK, s.body[:0]
}

// edgeFor wraps an oracle server the way cmd/serve does: the oracle (or
// cluster) routes plus the telemetry endpoints, inside the telemetry
// middleware with a request log, metrics and a flight recorder.
func edgeFor(o *oracle.Oracle, routes http.Handler, log *os.File) http.Handler {
	reg := telemetry.New()
	o.Instrument(reg)
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Capacity: 256, LatencyThreshold: 100 * time.Millisecond, SampleRate: 0.05})
	root := http.NewServeMux()
	root.Handle("/metrics", reg.Handler())
	root.Handle("/debug/traces", rec.Handler())
	root.Handle("/", routes)
	return telemetry.MiddlewareWith(root, telemetry.MiddlewareConfig{
		Metrics:  telemetry.NewHTTPMetrics(reg, "serve"),
		Logger:   slog.New(slog.NewTextHandler(log, nil)),
		Recorder: rec,
	})
}

// serveLoopback serves h on a fresh loopback listener until the returned
// stop function is called.
func serveLoopback(ln net.Listener, h http.Handler) func() {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed once stopped
	}()
	return func() {
		hs.Close()
		<-done
	}
}

// rungs replays serve-warm's requests through a ladder built the way
// cmd/serve wires its layers, each rung adding one: the oracle called
// directly, oracle.Server's handler, the telemetry edge around it, a
// loopback http.Server, and a 2-replica cluster asked on the replica that
// does not own the key. A layer's self time is its rung minus the rung
// below; rungs are interleaved pass by pass so drift hits all alike.
func rungs(env *env, seed int64, tr *tracer, parent int, m map[string]metric) error {
	in := genServe("serve-warm", seed, rungOps)
	o := oracle.New(0)
	logPath := filepath.Join(env.work, "rung.log")
	log, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer log.Close()
	handler := oracle.NewServer(o, 0).Handler()
	edge := edgeFor(o, handler, log)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer serveLoopback(ln, edge)()

	// The cluster: replica A takes the requests, B owns some keys.
	var lns [2]net.Listener
	var urls []string
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		urls = append(urls, "http://"+lns[i].Addr().String())
	}
	var clusters [2]*oracle.Cluster
	for i := range lns {
		clog, err := os.Create(filepath.Join(env.work, fmt.Sprintf("cluster-%d.log", i)))
		if err != nil {
			return err
		}
		defer clog.Close()
		co := oracle.New(0)
		clusters[i] = oracle.NewCluster(oracle.NewServer(co, 0), oracle.ClusterConfig{Self: urls[i], Peers: urls})
		defer serveLoopback(lns[i], edgeFor(co, clusters[i].Handler(), clog))()
	}

	ctx := context.Background()
	direct := func(r request) error {
		var err error
		switch r.Op {
		case "cell":
			_, err = o.TableCellCtx(ctx, r.Frac, r.K, r.Alpha)
		case "curve":
			_, err = o.SettlementCurveCtx(ctx, r.Alpha, r.Frac*(1-r.Alpha), r.K)
		case "failure":
			_, err = o.SettlementFailureCtx(ctx, r.Alpha, r.Frac*(1-r.Alpha), r.K)
		case "depth":
			_, err = o.ConfirmationDepthCtx(ctx, r.Alpha, r.Frac*(1-r.Alpha), r.Target, r.KMax)
		case "bracket":
			_, _, err = o.SettlementBracketCtx(ctx, r.Alpha, r.Frac*(1-r.Alpha), r.K, r.Tau)
		}
		return err
	}
	reqs := make([]*http.Request, len(in.Distinct))
	wires := make([][]byte, len(in.Distinct))
	for d, r := range in.Distinct {
		reqs[d] = httptest.NewRequest(http.MethodGet, r.path(), nil)
		wires[d] = r.wire()
	}
	front, err := dial(lns[0].Addr().String())
	if err != nil {
		return err
	}
	defer front.close()

	// Warm every rung's oracle, and find the requests replica A forwards.
	forwarded := make([]bool, len(in.Distinct))
	for d, r := range in.Distinct {
		if err := direct(r); err != nil {
			return fmt.Errorf("warm %s: %w", r.path(), err)
		}
		before := clusters[0].Stats().Forwards
		if _, err := front.get(wires[d]); err != nil {
			return fmt.Errorf("cluster warm %s: %w", r.path(), err)
		}
		forwarded[d] = clusters[0].Stats().Forwards > before
	}
	var remote []int
	for _, d := range in.Ops {
		if forwarded[d] {
			remote = append(remote, d)
		}
	}
	if len(remote) == 0 {
		return errors.New("no serve-warm request is owned by the second replica")
	}

	// Dialed only now: a server drops a connection whose first request
	// does not arrive within its ReadHeaderTimeout.
	socket, err := dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer socket.close()

	w := &sink{h: http.Header{}}
	serveOne := func(h http.Handler) func(d int) error {
		return func(d int) error {
			w.reset()
			h.ServeHTTP(w, reqs[d])
			if w.status != http.StatusOK {
				return fmt.Errorf("%s: status %d %s", in.Distinct[d].path(), w.status, w.body)
			}
			return nil
		}
	}
	overSocket := func(c *clientConn) func(d int) error {
		return func(d int) error {
			if _, err := c.get(wires[d]); err != nil {
				return fmt.Errorf("%s: %w", in.Distinct[d].path(), err)
			}
			return nil
		}
	}
	type rung struct {
		name   string
		list   []int
		call   func(d int) error
		allocs bool
		perOp  []float64 // ns per op, one per pass
		allocN []float64 // mallocs per op, one per pass
		allocB []float64 // bytes allocated per op, one per pass
	}
	ladder := []*rung{
		{name: "oracle", list: in.Ops, call: func(d int) error { return direct(in.Distinct[d]) }, allocs: true},
		{name: "handler", list: in.Ops, call: serveOne(handler), allocs: true},
		{name: "telemetry", list: in.Ops, call: serveOne(edge), allocs: true},
		{name: "socket", list: in.Ops, call: overSocket(socket)},
		{name: "socket_remote", list: remote, call: overSocket(socket)},
		{name: "cluster", list: remote, call: overSocket(front)},
	}
	edgeRequests := 0
	for pass := range rungPasses {
		for _, r := range ladder {
			var ms0, ms1 runtime.MemStats
			if r.allocs {
				runtime.ReadMemStats(&ms0)
			}
			var cerr error
			d := tr.timed("rung."+r.name, parent, int64(pass), func() {
				for _, d := range r.list {
					if cerr = r.call(d); cerr != nil {
						return
					}
				}
			})
			if cerr != nil {
				return fmt.Errorf("rung %s: %w", r.name, cerr)
			}
			n := float64(len(r.list))
			r.perOp = append(r.perOp, float64(d)/n)
			if r.allocs {
				runtime.ReadMemStats(&ms1)
				r.allocN = append(r.allocN, float64(ms1.Mallocs-ms0.Mallocs)/n)
				r.allocB = append(r.allocB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
			}
			if r.name == "telemetry" || r.name == "socket" || r.name == "socket_remote" {
				edgeRequests += len(r.list)
			}
		}
	}
	if err := log.Sync(); err != nil {
		return err
	}
	st, err := os.Stat(logPath)
	if err != nil {
		return err
	}
	med := map[string]float64{}
	for _, r := range ladder {
		med[r.name] = median(r.perOp)
	}
	self := func(upper, lower string) float64 { return (med[upper] - med[lower]) / 1e3 }
	m["oracle.query_ns"] = metric{med["oracle"], "ns"}
	m["oracle.handler_self_us"] = metric{self("handler", "oracle"), "us"}
	m["oracle.handler_allocs_per_op"] = metric{median(ladder[1].allocN) - median(ladder[0].allocN), "count"}
	m["telemetry.self_us"] = metric{self("telemetry", "handler"), "us"}
	m["telemetry.allocs_per_op"] = metric{median(ladder[2].allocN) - median(ladder[1].allocN), "count"}
	m["telemetry.bytes_per_op"] = metric{median(ladder[2].allocB) - median(ladder[1].allocB), "B"}
	m["telemetry.log_bytes_per_op"] = metric{float64(st.Size()) / float64(edgeRequests), "B"}
	m["serve.self_us"] = metric{self("socket", "telemetry"), "us"}
	m["cluster.forward_self_us"] = metric{self("cluster", "socket_remote"), "us"}
	fmt.Fprintf(os.Stderr, "rungs (ns/op): oracle %.0f  handler %.0f  telemetry %.0f  socket %.0f  socket(remote keys) %.0f  cluster %.0f\n",
		med["oracle"], med["handler"], med["telemetry"], med["socket"], med["socket_remote"], med["cluster"])
	if !(med["oracle"] <= med["handler"] && med["handler"] <= med["telemetry"] && med["telemetry"] <= med["socket"]) {
		return fmt.Errorf("rung times do not rise oracle ≤ handler ≤ telemetry ≤ socket: %v", med)
	}
	return nil
}

// latticeLayer times cold curve builds on serve-churn's miss keys and
// the in-place extension of each built curve from k to 2k.
func latticeLayer(seed int64, tr *tracer, parent int, m map[string]metric) error {
	in := genServe("serve-churn", seed, 4*latticeKeys*len(ops))
	warm := map[point]bool{}
	for _, d := range in.Warm {
		warm[point{in.Distinct[d].Alpha, in.Distinct[d].Frac}] = true
	}
	const k = 200
	var builds, extends []time.Duration
	for _, d := range in.Ops {
		r := in.Distinct[d]
		p := point{r.Alpha, r.Frac}
		if warm[p] || len(builds) == latticeKeys {
			continue
		}
		warm[p] = true
		_, params, err := oracle.Canonicalize(r.Alpha, r.Frac*(1-r.Alpha), 0)
		if err != nil {
			return err
		}
		c := settlement.New(params).Curve(0)
		op := int64(len(builds))
		builds = append(builds, tr.timed("lattice.build", parent, op, func() { err = c.Extend(k) }))
		if err == nil {
			extends = append(extends, tr.timed("lattice.extend", parent, op, func() { err = c.Extend(2 * k) }))
		}
		if err != nil {
			return fmt.Errorf("lattice at %v: %w", p, err)
		}
	}
	if len(builds) == 0 {
		return errors.New("no serve-churn miss key")
	}
	m["lattice.build_ms"] = metric{float64(median(builds)) / 1e6, "ms"}
	m["lattice.extend_ms"] = metric{float64(median(extends)) / 1e6, "ms"}
	return nil
}

// blockSink keeps micro-benchmark results observable to the compiler.
var blockSink uint64

// computeLayers times the offline workload's layers: the Table-1 block,
// the runner's generator and pool, block classification, the E1/E3/E5
// verdict kernels and the tilted rare-event estimator.
func computeLayers(seed int64, tr *tracer, parent int, m map[string]metric) error {
	cycle := jobs.Cycle(seed)
	first := func(kind string) jobs.Job {
		for _, j := range cycle {
			if j.Kind == kind {
				return j
			}
		}
		panic("job cycle without " + kind)
	}
	nproc := runtime.NumCPU()
	// timeJob returns the median wall time of a job on 1 and nproc workers.
	timeJob := func(span string, j jobs.Job) (one, all time.Duration, err error) {
		var t1, tn []time.Duration
		for rep := range microReps {
			for _, w := range []int{1, nproc} {
				d := tr.timed(fmt.Sprintf("%s.w%d", span, w), parent, int64(rep), func() { _, err = j.Run(w) })
				if err != nil {
					return 0, 0, err
				}
				if w == 1 {
					t1 = append(t1, d)
				} else {
					tn = append(tn, d)
				}
			}
		}
		return median(t1), median(tn), nil
	}

	t1, tn, err := timeJob("settlement.table1", first("table1"))
	if err != nil {
		return err
	}
	m["settlement.table1_block_ms"] = metric{float64(tn) / 1e6, "ms"}
	m["settlement.parallel_speedup"] = metric{t1.Seconds() / tn.Seconds(), "x"}

	e3 := first("e3")
	if t1, tn, err = timeJob("runner.e3", e3); err != nil {
		return err
	}
	m["runner.samples_per_s"] = metric{float64(e3.N) / tn.Seconds(), "1/s"}
	m["runner.parallel_efficiency"] = metric{t1.Seconds() / tn.Seconds() / float64(nproc), "ratio"}

	rj := first("rare")
	var rareT []time.Duration
	for rep := range microReps {
		rareT = append(rareT, tr.timed("rare.tilted", parent, int64(rep), func() { _, err = rj.Run(nproc) }))
		if err != nil {
			return err
		}
	}
	m["rare.weighted_samples_per_s"] = metric{float64(rj.N) / median(rareT).Seconds(), "1/s"}

	// Generator and classifier on pre-drawn raw blocks.
	e1 := first("e1")
	p := charstring.MustParams(e1.Eps, e1.Ph)
	const fills = 200_000
	var rng runner.SM64
	rng.Reseed(uint64(seed))
	raw := make([][runner.BlockSize]uint64, 1024)
	for i := range raw {
		rng.Fill(&raw[i])
	}
	perBlock := func(name string, blocks int, f func()) float64 {
		var ds []time.Duration
		for rep := range microReps {
			ds = append(ds, tr.timed(name, parent, int64(rep), f))
		}
		return float64(median(ds)) / float64(blocks)
	}
	m["runner.fill_ns_per_block"] = metric{perBlock("runner.fill", fills, func() {
		var dst [runner.BlockSize]uint64
		for range fills {
			rng.Fill(&dst)
		}
		blockSink += dst[0]
	}), "ns"}
	th := p.Thresholds()
	m["charstring.classify_ns_per_block"] = metric{perBlock("charstring.classify", fills, func() {
		var syms [runner.BlockSize]charstring.Symbol
		var acc uint64
		for i := range fills {
			a, h := th.ClassifyBlock(&raw[i%len(raw)], &syms)
			acc += a ^ h
		}
		blockSink += acc
	}), "ns"}

	// Verdict kernels on pre-classified blocks.
	blocks := make([]runner.Block, 1024)
	fill := mc.BlockBernoulliSampler(p)
	for i := range blocks {
		rng.Reseed(runner.SampleSeed(seed, 0, i))
		fill(&rng, 0, &blocks[i])
	}
	kernel := func(name string, T int, v runner.BlockVerdict) (float64, error) {
		const budget = 100_000 // blocks fed per repeat
		var ferr error
		ns := perBlock(name, budget, func() {
			b := 0
			for b < budget {
				v.Reset()
				for fed := 0; fed < T && b < budget; b++ {
					n := min(runner.BlockSize, T-fed)
					fed += n
					if v.FeedBlock(&blocks[b%len(blocks)], n) != 0 {
						b++
						break
					}
				}
				if _, err := v.Finish(); err != nil && ferr == nil {
					ferr = err
				}
			}
		})
		return ns, ferr
	}
	e5 := first("e5")
	for _, kc := range []struct {
		name string
		T    int
		v    runner.StreamVerdict
	}{
		{"e1", e1.S - 1 + e1.K + e1.Tail, mc.NewNoUHCatalanStreamVerdict(e1.S, e1.K)},
		{"e3", e3.M + e3.K, mc.NewSettlementStreamVerdict(e3.M, e3.M+e3.K)},
		{"e5", e5.T, mc.NewCPStreamVerdict(e5.K, false)},
	} {
		bv, ok := kc.v.(runner.BlockVerdict)
		if !ok {
			return fmt.Errorf("mc %s: verdict has no block path", kc.name)
		}
		ns, err := kernel("mc."+kc.name, kc.T, bv)
		if err != nil {
			return fmt.Errorf("mc %s: %w", kc.name, err)
		}
		m["mc."+kc.name+"_ns_per_block"] = metric{ns, "ns"}
	}
	return nil
}
