package runner

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multihonest/internal/charstring"
	"multihonest/internal/telemetry"
)

// TestInstrumentRecordsJobs runs instrumented unweighted and weighted jobs
// and checks the per-job series: sample counts exact, throughput gauge
// set, active gauge back to zero, and the Estimate untouched by the
// instrumentation (Name is display metadata, never sampling scheme).
func TestInstrumentRecordsJobs(t *testing.T) {
	reg := telemetry.New()
	Instrument(reg)
	defer met.Store(nil)

	p := charstring.MustParams(0.3, 0.2)
	newV := func() blockOf { return blockOf{&constVerdict{}} }
	cfg := Config{N: 1000, Seed: 7, Workers: 2, BatchSize: 64, Name: "job_a"}
	bare, err := RunStreamBlocks(Config{N: 1000, Seed: 7, Workers: 2, BatchSize: 64}, 4, thresholdBlocks(p), newV)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := RunStreamBlocks(cfg, 4, thresholdBlocks(p), newV)
	if err != nil {
		t.Fatal(err)
	}
	if inst != bare {
		t.Fatalf("instrumented estimate %+v differs from bare %+v", inst, bare)
	}

	// job_b runs on four workers, whose batch records race for the
	// tracker: its counter must still hold exactly the job's samples.
	if _, err := RunStreamWeightedBlocks(Config{N: 500, Seed: 1, Workers: 4, BatchSize: 16, Name: "job_b"}, 4, thresholdBlocks(p),
		weighted(func() WeightedStreamVerdict { return &countWeighted{T: 4, need: 1} })); err != nil {
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
	if got, _ := sc.Value("runner_samples_total", map[string]string{"job": "job_a"}); got != 1000 {
		t.Errorf("job_a samples = %v, want 1000", got)
	}
	if got, _ := sc.Value("runner_samples_total", map[string]string{"job": "job_b"}); got != 500 {
		t.Errorf("job_b samples = %v, want 500", got)
	}
	if got, ok := sc.Value("runner_samples_per_second", map[string]string{"job": "job_a"}); !ok || got <= 0 {
		t.Errorf("job_a rate = %v (present=%v), want > 0", got, ok)
	}
	if got, _ := sc.Value("runner_active_jobs", nil); got != 0 {
		t.Errorf("active jobs = %v after completion, want 0", got)
	}
}

// gateState is a one-step weighted state whose second Begin (across all
// instances) signals entered and then waits for release, holding its
// job open.
type gateState struct {
	calls   *atomic.Int64
	entered chan<- struct{}
	release <-chan struct{}
}

func (s *gateState) Begin(*SM64) {
	if s.calls.Add(1) == 2 {
		close(s.entered)
		<-s.release
	}
}
func (s *gateState) Step(*SM64) bool                { return true }
func (s *gateState) Finish() (bool, float64, error) { return true, 1, nil }

// TestWeightedJobCountsLiveSamples: a weighted job's finished batches
// reach runner_samples_total while the job is still running — each
// worker records its own batches as they finish, not at the final fold.
func TestWeightedJobCountsLiveSamples(t *testing.T) {
	reg := telemetry.New()
	Instrument(reg)
	defer met.Store(nil)
	samples := met.Load().samples.With("live_job")

	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// One worker, one sample per batch: batch 0 finishes, then batch
		// 1 blocks in its first Begin until released.
		_, err := RunWeightedStates(Config{N: 2, Seed: 1, Workers: 1, BatchSize: 1, Name: "live_job"},
			func() WeightedState { return &gateState{calls: &calls, entered: entered, release: release} })
		done <- err
	}()
	<-entered
	deadline := time.Now().Add(2 * time.Second)
	for samples.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	live := samples.Value()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if live <= 0 {
		t.Errorf("runner_samples_total{job=live_job} = %d while the job ran, want > 0", live)
	}
	if got := samples.Value(); got != 2 {
		t.Errorf("runner_samples_total{job=live_job} = %d after the job, want 2", got)
	}
}

// TestTrackerZeroAllocs pins the per-batch telemetry cost inside the
// aggregator loops: recording a completed batch allocates nothing.
func TestTrackerZeroAllocs(t *testing.T) {
	reg := telemetry.New()
	Instrument(reg)
	defer met.Store(nil)
	cfg := Config{Name: "alloc_job"}
	tk := track(&cfg)
	defer tk.finish()
	if allocs := testing.AllocsPerRun(200, func() { tk.batch(256) }); allocs != 0 {
		t.Fatalf("tracker batch: %v allocs/op, want 0", allocs)
	}
	var nilTk *jobTracker
	if allocs := testing.AllocsPerRun(200, func() { nilTk.batch(256); nilTk.finish() }); allocs != 0 {
		t.Fatalf("nil tracker: %v allocs/op, want 0", allocs)
	}
}

type constVerdict struct{ n int }

func (v *constVerdict) Reset()                          { v.n = 0 }
func (v *constVerdict) Feed(charstring.Symbol) (d bool) { v.n++; return v.n >= 2 }
func (v *constVerdict) Finish() (bool, error)           { return true, nil }
