// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the real programs as child processes — cmd/serve for
// serve-warm and serve-churn, the offline job worker for offline — drives
// them from this process, checks every answer, and prints one JSON line
// of metrics. See README.md for the workloads, the metrics and what each
// layer metric should move.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	perfbench -bin DIR -work DIR --workload serve-warm --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the workload
// with spans recorded, measures every layer, writes the spans to the work
// directory and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"multihonest/perfbench/jobs"
)

// env locates the programs under test and the run's working directory.
type env struct {
	serveBin, workerBin string
	work                string
}

// phase is what one measured phase observed, from outside the program
// under test.
type phase struct {
	ops, failed int
	lat         []time.Duration // per op
	segs        []segment
	wall        time.Duration
	rss         int64         // the program under test's peak resident set
	genCPU      time.Duration // this process's own CPU over the phase
	err         error         // the first failed op
}

// segment is one of the equal consecutive slices a measured phase runs
// as, back to back.
type segment struct {
	ops  int
	wall time.Duration
	cpu  time.Duration // the program under test's user+system CPU
}

// maxSegments bounds how many slices a measured phase runs as; each
// slice holds at least minOps ops, so its p99 has ten samples above it.
// Every end-to-end rate, latency and CPU figure is the median over the
// slices, so a transient stall of the shared machine moves one slice
// rather than the result.
const maxSegments = 5

// measure runs len(ph.lat) ops as back-to-back segments, calling loop on
// each, timing it and reading the CPU time of process pid around it.
func (ph *phase) measure(pid int, loop func(lo, hi int)) error {
	n := len(ph.lat)
	ph.ops = n
	segs := max(1, min(maxSegments, n/minOps))
	gen0 := selfCPU()
	start := time.Now()
	for s := range segs {
		lo, hi := s*n/segs, (s+1)*n/segs
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		t0 := time.Now()
		loop(lo, hi)
		wall := time.Since(t0)
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		ph.segs = append(ph.segs, segment{ops: hi - lo, wall: wall, cpu: cpu1 - cpu0})
	}
	ph.wall = time.Since(start)
	ph.genCPU = selfCPU() - gen0
	return nil
}

// workloadRun is one workload run: its set-ups and its measured phase.
type workloadRun struct {
	setups []time.Duration
	ph     *phase
	served *servedPhase // nil for offline
}

var workloads = []string{"serve-warm", "serve-churn", "offline"}

// setupReps is how many times an end-to-end run sets the program up; the
// reported set-up time is their median.
const setupReps = 3

// runWorkload sets the workload's program up reps times (stopping all but
// the last), runs the measured phase of nOps ops against the last one and
// checks every answer. A wrong answer is an error.
func runWorkload(env *env, workload string, seed int64, nOps, reps int, tr *tracer) (*workloadRun, error) {
	run := &workloadRun{}
	if workload == "offline" {
		cycle := jobs.Cycle(seed)
		var w *worker
		for r := range reps {
			if w != nil {
				w.stop()
			}
			var err error
			sp := tr.begin("setup", -1, int64(r))
			start := time.Now()
			w, err = startWorker(env, cycle)
			run.setups = append(run.setups, time.Since(start))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		ph, texts, err := driveWorker(w, cycle, nOps, tr)
		w.stop()
		if err != nil {
			return nil, err
		}
		run.ph = ph
		if ph.err != nil {
			return run, ph.err
		}
		return run, verifyOffline(cycle, texts, w.refs)
	}

	in := genServe(workload, seed, nOps)
	refs := make(bodies, len(in.Distinct))
	var s *server
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	for r := range reps {
		if s != nil {
			s.stop()
		}
		var err error
		sp := tr.begin("setup", -1, int64(r))
		boot := tr.begin("exec_to_ready", sp, int64(r))
		start := time.Now()
		s, err = startServer(env, in.Cache)
		tr.end(boot)
		if err == nil {
			err = warmServer(s, &in, refs, tr, sp)
		}
		run.setups = append(run.setups, time.Since(start))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp, err := driveServer(s, &in, refs, tr)
	if err != nil {
		return nil, err
	}
	run.ph, run.served = &sp.phase, sp
	if sp.err != nil {
		return run, sp.err
	}
	if workload == "serve-warm" {
		if m := delta(sp.before, sp.after, "oracle_cache_misses_total"); m != 0 {
			return run, fmt.Errorf("serve-warm measured phase missed the oracle cache %v times", m)
		}
	}
	return run, verifyServed(&in, refs, seed)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics of a run.
func endToEnd(run *workloadRun) map[string]metric {
	ph := run.ph
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var rate, cpu, p50, p99 []float64
	lo := 0
	for _, s := range ph.segs {
		lat := ph.lat[lo : lo+s.ops]
		rate = append(rate, float64(s.ops)/s.wall.Seconds())
		cpu = append(cpu, ms(s.cpu)/float64(s.ops))
		p50 = append(p50, ms(percentile(lat, 0.50)))
		p99 = append(p99, ms(percentile(lat, 0.99)))
		lo += s.ops
	}
	return map[string]metric{
		"setup_s":          {median(run.setups).Seconds(), "s"},
		"throughput_ops_s": {median(rate), "1/s"},
		"latency_p50_ms":   {median(p50), "ms"},
		"latency_p99_ms":   {median(p99), "ms"},
		"cpu_ms_per_op":    {median(cpu), "ms"},
		"rss_peak_mb":      {float64(ph.rss) / (1 << 20), "MB"},
	}
}

func main() {
	// Any signal stops the children before the benchmark goes.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(2)
	}()
	code := realMain(os.Args[1:])
	stopAll()
	os.Exit(code)
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-warm, serve-churn or offline")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "nominal length of the measured phase")
	trace := fs.Int("trace", 0, "1: record spans and report per-layer metrics")
	bin := fs.String("bin", "", "directory holding the serve and worker binaries")
	work := fs.String("work", "", "working directory for logs and spans")
	opsFlag := fs.Int("ops", 0, "override the measured op count (self-tests only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1, --trace 0|1, -bin and -work\n", workloads)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := &env{
		serveBin:  filepath.Join(*bin, "serve"),
		workerBin: filepath.Join(*bin, "worker"),
		work:      *work,
	}
	nOps := opCount(*workload, *seconds)
	if *opsFlag > 0 {
		nOps = *opsFlag
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = untraced(env, *workload, *seed, nOps)
	} else {
		res, err = traced(env, *workload, *seed, nOps)
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG ANSWER:", err)
		res.Correct = false
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// untraced is the end-to-end run. It returns a nil result when the run
// could not measure at all, and a result plus an error when an answer
// was wrong.
func untraced(env *env, workload string, seed int64, nOps int) (*result, error) {
	run, err := runWorkload(env, workload, seed, nOps, setupReps, nil)
	if run == nil || run.ph == nil {
		if err == nil {
			err = errors.New("no measurement")
		}
		return nil, err
	}
	res := &result{Correct: err == nil, Attempted: run.ph.ops, Failed: run.ph.failed, Metrics: endToEnd(run)}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops in %v, set-ups %v\n", workload, seed, run.ph.ops, run.ph.wall.Round(time.Millisecond), run.setups)
	return res, err
}
