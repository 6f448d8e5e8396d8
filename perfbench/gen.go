package main

import (
	"fmt"
	"math/rand"
)

// request is one GET the served workloads send.
type request struct {
	Op     string // cell, curve, failure, depth or bracket
	Alpha  float64
	Frac   float64
	K      int     // horizon (every op but depth)
	Target float64 // depth only
	KMax   int     // depth only
	Tau    float64 // bracket only
}

// path renders the request as the URL path and query cmd/serve expects.
func (r request) path() string {
	switch r.Op {
	case "depth":
		return fmt.Sprintf("/v1/depth?alpha=%g&frac=%g&target=%g&kmax=%d", r.Alpha, r.Frac, r.Target, r.KMax)
	case "bracket":
		return fmt.Sprintf("/v1/bracket?alpha=%g&frac=%g&k=%d&tau=%g", r.Alpha, r.Frac, r.K, r.Tau)
	}
	return fmt.Sprintf("/v1/%s?alpha=%g&frac=%g&k=%d", r.Op, r.Alpha, r.Frac, r.K)
}

// wire is the request as HTTP/1.1 bytes on a keep-alive connection.
func (r request) wire() []byte {
	return []byte("GET " + r.path() + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// serveInputs is everything a served workload sends: the distinct
// requests, the serial warm pass and the measured phase's request order,
// both as indices into Distinct.
type serveInputs struct {
	Cache    int // the server's -cache capacity
	Distinct []request
	Warm     []int
	Ops      []int
}

// Workload sizes. The hot set of serve-warm fits the default cache many
// times over; serve-churn's universe is 16 times its cache.
const (
	hotKeys    = 80
	churnKeys  = 256
	churnCache = 16
	// churnWarmKeys is how many universe keys the churn warm pass builds.
	churnWarmKeys = 64
)

// opsPerSecond is each workload's nominal rate on two cores: the measured
// phase sends seconds × rate ops, a fixed count rather than a duration.
var opsPerSecond = map[string]int{
	"serve-warm":  15000,
	"serve-churn": 500,
	"offline":     90,
}

// minOps keeps at least ten samples above the reported p99: a measured
// phase never sends fewer, nor does any segment of it hold fewer.
const minOps = 1000

// opCount is the measured phase's op count for a workload and run length.
func opCount(workload string, seconds int) int {
	return max(minOps, seconds*opsPerSecond[workload])
}

// point is one parameter point on the oracle's basis-point grid.
type point struct{ alpha, frac float64 }

// points draws n distinct parameter points, stratified: the α range and
// the honest-fraction range are each cut into n equal strata, every
// stratum holds exactly one point, and the seed decides where inside its
// stratum each point lies and which α stratum pairs with which fraction
// stratum. The multiset of costs thus barely moves with the seed. The
// ranges keep every depth query's target reachable well inside its kmax
// and every op's cold cost in the low milliseconds.
func points(rng *rand.Rand, n int) []point {
	const (
		alphaLo, alphaSpan = 500, 2500  // α in [0.05, 0.30], basis points
		fracLo, fracSpan   = 5000, 5000 // honest fraction in [0.50, 1.00]
	)
	fracOrder := rng.Perm(n)
	out := make([]point, n)
	for i := range out {
		// Distinct α strata make the points distinct.
		out[i] = point{
			alpha: float64(alphaLo+stratum(rng, i, n, alphaSpan)) / 1e4,
			frac:  float64(fracLo+stratum(rng, fracOrder[i], n, fracSpan)) / 1e4,
		}
	}
	return out
}

// stratum draws a whole number in the i-th of n equal strata of [0, span].
func stratum(rng *rand.Rand, i, n, span int) int {
	lo, hi := i*span/n, (i+1)*span/n
	return lo + rng.Intn(max(1, hi-lo))
}

// pointRequest builds the request of one op at a point and horizon.
func pointRequest(op string, p point, k int) request {
	r := request{Op: op, Alpha: p.alpha, Frac: p.frac, K: k}
	switch op {
	case "depth":
		r.K, r.Target, r.KMax = 0, 1e-4, 4096
	case "bracket":
		r.Tau = 1e-30
	}
	return r
}

var ops = []string{"cell", "curve", "failure", "depth", "bracket"}

// genServe draws a served workload's inputs from the seed.
func genServe(workload string, seed int64, nOps int) serveInputs {
	rng := rand.New(rand.NewSource(seed))
	var in serveInputs
	switch workload {
	case "serve-warm":
		// One request per (hot key, op), each with its own horizon; the
		// warm pass sends all of them, so the measured phase only hits.
		// Horizons are stratified per op like the points: each op sees
		// every stratum of [20, 200] once, in a seeded order.
		pts := points(rng, hotKeys)
		for _, op := range ops {
			for i, j := range rng.Perm(hotKeys) {
				in.Warm = append(in.Warm, len(in.Distinct))
				in.Distinct = append(in.Distinct, pointRequest(op, pts[i], 20+stratum(rng, j, hotKeys, 180)))
			}
		}
		in.Ops = make([]int, nOps)
		for i := range in.Ops {
			in.Ops[i] = rng.Intn(len(in.Distinct))
		}
	case "serve-churn":
		// Every (key, op, horizon) of a universe 16× the cache: most ops
		// miss, and a resident key asked deeper extends in place.
		in.Cache = churnCache
		horizons := []int{50, 100, 150, 200}
		pts := points(rng, churnKeys)
		index := make(map[request]int)
		id := func(r request) int {
			if i, ok := index[r]; ok {
				return i
			}
			index[r] = len(in.Distinct)
			in.Distinct = append(in.Distinct, r)
			return index[r]
		}
		for _, p := range pts[:churnWarmKeys] {
			for _, op := range ops {
				in.Warm = append(in.Warm, id(pointRequest(op, p, 200)))
			}
		}
		in.Ops = make([]int, nOps)
		for i := range in.Ops {
			p := pts[rng.Intn(len(pts))]
			in.Ops[i] = id(pointRequest(ops[rng.Intn(len(ops))], p, horizons[rng.Intn(len(horizons))]))
		}
	default:
		panic("genServe: not a served workload: " + workload)
	}
	return in
}
