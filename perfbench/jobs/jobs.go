// Package jobs defines the offline workload's compute jobs: seeded
// Monte-Carlo runner jobs (experiments E1, E3 and E5), a tilted rare-event
// job and a Table-1 block. The offline worker runs them and the benchmark
// reruns them to check the worker's answers, so both sides share
// this one definition, including the canonical text form of each result.
package jobs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"multihonest/internal/charstring"
	"multihonest/internal/mc"
	"multihonest/internal/rare"
	"multihonest/internal/runner"
	"multihonest/internal/settlement"
)

// Job is one compute job. Kind selects the computation; the other fields
// are its parameters (unused ones stay zero).
type Job struct {
	Kind     string    `json:"kind"` // "e1", "e3", "e5", "rare" or "table1"
	Eps      float64   `json:"eps,omitempty"`
	Ph       float64   `json:"ph,omitempty"`
	S        int       `json:"s,omitempty"`
	K        int       `json:"k,omitempty"`
	Tail     int       `json:"tail,omitempty"`
	M        int       `json:"m,omitempty"`
	T        int       `json:"t,omitempty"`
	N        int       `json:"n,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
	Theta    float64   `json:"theta,omitempty"`
	Alphas   []float64 `json:"alphas,omitempty"`
	Fracs    []float64 `json:"fracs,omitempty"`
	Horizons []int     `json:"horizons,omitempty"`
}

// Cycle returns the seeded job cycle the offline workload repeats: two
// jobs of each kind. Each kind has two fixed parameter variants, one per
// job; the seed decides which variant comes first and draws every job's
// sample stream, so a cycle's total work barely moves with the seed. Each
// job takes about 10–30 ms on two workers.
func Cycle(seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	var pair [2][]Job
	for v := range pair {
		eps, ph := []float64{0.36, 0.44}[v], []float64{0.35, 0.25}[v]
		pair[v] = []Job{
			{Kind: "e1", Eps: eps, Ph: ph, S: 40, K: 160, Tail: 150, N: 6000},
			{Kind: "e3", Eps: eps, Ph: ph, M: 600, K: 100, N: 5000},
			{Kind: "e5", Eps: eps, Ph: ph, T: 400, K: 40, N: 3000},
			{Kind: "rare", Eps: []float64{0.68, 0.72}[v], Ph: 0.45, K: 60, N: 20000, Theta: 0.55},
			{Kind: "table1", Alphas: [][]float64{{0.1, 0.25}, {0.15, 0.2}}[v], Fracs: []float64{[]float64{0.5, 1}[v]},
				Horizons: []int{50, 100, 150}},
		}
	}
	var out []Job
	for i := range pair[0] {
		first := rng.Intn(2)
		for _, v := range []int{first, 1 - first} {
			j := pair[v][i]
			if j.Kind != "table1" {
				j.Seed = rng.Int63()
			}
			out = append(out, j)
		}
	}
	return out
}

// Result is a job's answer. Text is its canonical form: every count and
// every float as its exact bit pattern, so two results are equal as
// strings exactly when they are bitwise equal. P and SE are the point
// estimate and its standard error (zero SE for the exact Table-1 block).
type Result struct {
	Text  string
	P, SE float64
	N     int
}

// Run computes the job on the given number of workers. The runner and
// Table-1 contracts make the result independent of workers.
func (j Job) Run(workers int) (Result, error) {
	if j.Kind == "table1" {
		tbl, err := settlement.ComputeTable1(j.Alphas, j.Fracs, j.Horizons, workers)
		if err != nil {
			return Result{}, err
		}
		var b strings.Builder
		for _, a := range j.Alphas {
			for _, f := range j.Fracs {
				for _, k := range j.Horizons {
					v, err := tbl.Lookup(f, k, a)
					if err != nil {
						return Result{}, err
					}
					fmt.Fprintf(&b, "%x ", math.Float64bits(v))
				}
			}
		}
		return Result{Text: strings.TrimSpace(b.String())}, nil
	}
	p, err := charstring.NewParams(j.Eps, j.Ph)
	if err != nil {
		return Result{}, err
	}
	switch j.Kind {
	case "e1":
		return estimate(mc.NoUniquelyHonestCatalan(p, j.S, j.K, j.Tail, j.N, j.Seed, workers)), nil
	case "e3":
		return estimate(mc.SettlementViolation(p, j.M, j.K, j.N, j.Seed, workers)), nil
	case "e5":
		return estimate(mc.CPViolationPossible(p, j.T, j.K, j.N, j.Seed, false, workers)), nil
	case "rare":
		r, err := rare.SettlementTilted(p, j.K, rare.Options{Theta: j.Theta, N: j.N, MaxRounds: 1, Seed: j.Seed, Workers: workers})
		if err != nil {
			return Result{}, err
		}
		w := r.WeightedEstimate
		return Result{
			Text: fmt.Sprintf("n=%d hits=%d w=%x w2=%x p=%x se=%x", w.N, w.Hits,
				math.Float64bits(w.SumW), math.Float64bits(w.SumW2), math.Float64bits(w.P), math.Float64bits(w.SE)),
			P: w.P, SE: w.SE, N: w.N,
		}, nil
	}
	return Result{}, fmt.Errorf("jobs: unknown kind %q", j.Kind)
}

func estimate(e runner.Estimate) Result {
	return Result{Text: fmt.Sprintf("n=%d hits=%d", e.N, e.Hits), P: e.P, N: e.N}
}

// Reference returns the exact DP value a Monte-Carlo job estimates, for
// the kinds that have one (E3 against the finite-prefix settlement curve,
// the tilted job against the stationary violation probability).
func (j Job) Reference() (float64, bool, error) {
	if j.Kind != "e3" && j.Kind != "rare" {
		return 0, false, nil
	}
	p, err := charstring.NewParams(j.Eps, j.Ph)
	if err != nil {
		return 0, false, err
	}
	c := settlement.New(p)
	if j.Kind == "rare" {
		v, err := c.ViolationProbability(j.K)
		return v, true, err
	}
	curve, err := c.ViolationCurveFinitePrefix(j.M, j.K)
	if err != nil {
		return 0, false, err
	}
	return curve[j.K-1], true, nil
}

// Plausible checks an estimate against the job's DP reference: within
// eight binomial standard errors for E3 (plus a few counts, as the
// conformance fuzzers allow), and within eight reported standard errors
// or half the reference for the tilted estimator.
func (j Job) Plausible(r Result, ref float64) error {
	var tol float64
	switch j.Kind {
	case "e3":
		tol = 8*math.Sqrt(ref*(1-ref)/float64(r.N)) + 4/float64(r.N)
	case "rare":
		tol = max(8*r.SE, ref/2)
	default:
		return nil
	}
	if d := math.Abs(r.P - ref); !(d <= tol) {
		return fmt.Errorf("jobs: %s estimate %v is %v from the DP value %v (tolerance %v)", j.Kind, r.P, d, ref, tol)
	}
	return nil
}
