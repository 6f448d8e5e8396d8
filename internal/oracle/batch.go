package oracle

import (
	"context"
	"fmt"

	"multihonest/internal/runner"
	"multihonest/internal/telemetry"
)

// BatchQuery is one element of a multi-query request. Op selects the
// question; the remaining fields are read per-op:
//
//	"depth":   alpha, ph|frac, target, kmax
//	"curve":   alpha, ph|frac, k
//	"failure": alpha, ph|frac, k          (point query)
//	"bracket": alpha, ph|frac, k, tau
//	"cell":    alpha, frac, k             (Table-1 coordinates)
//
// Exactly one of Ph and Frac must be set (Frac is mandatory for "cell");
// when Frac is given, ph = frac·(1−α).
type BatchQuery struct {
	Op     string   `json:"op"`
	Alpha  float64  `json:"alpha"`
	Ph     *float64 `json:"ph,omitempty"`
	Frac   *float64 `json:"frac,omitempty"`
	K      int      `json:"k,omitempty"`
	Tau    float64  `json:"tau,omitempty"`
	Target float64  `json:"target,omitempty"`
	KMax   int      `json:"kmax,omitempty"`
}

// BatchResult is the answer to one BatchQuery, in request order. Error is
// per-query: one malformed query does not fail its siblings.
type BatchResult struct {
	Op    string `json:"op"`
	Error string `json:"error,omitempty"`

	Depth int       `json:"depth,omitempty"`
	P     *float64  `json:"p,omitempty"`
	Lower *float64  `json:"lower,omitempty"`
	Upper *float64  `json:"upper,omitempty"`
	Curve []float64 `json:"curve,omitempty"`
}

// BatchPlan reports how a batch was scheduled: queries grouped by
// canonical chain so each resident curve is locked and extended once.
type BatchPlan struct {
	Queries int `json:"queries"`
	Groups  int `json:"groups"`
	MaxK    int `json:"max_k"`
}

// query converts the batch element into the oracle's query, reporting
// the first fault: the op's own checks (the GET path's validation), then
// the resolution of ph — so an invalid query is rejected before its
// chain is looked up and can neither create nor evict a cache entry.
func (b *BatchQuery) query() (query, error) {
	q := query{op: b.Op, alpha: b.Alpha, k: b.K, target: b.Target}
	switch b.Op {
	case "depth":
		q.k = b.KMax
	case "bracket":
		q.tau = b.Tau // only bracket queries run on pruned chains
	}
	if b.Frac != nil {
		q.frac = *b.Frac // a missing cell frac is ph's fault, not validation's
	}
	if err := q.validate(); err != nil {
		return q, err
	}
	switch {
	case b.Op == "cell":
		if b.Frac == nil {
			return q, fmt.Errorf("oracle: cell query requires frac")
		}
		q.ph = q.frac * (1 - q.alpha)
	case b.Ph != nil && b.Frac != nil:
		return q, fmt.Errorf("oracle: give ph or frac, not both")
	case b.Ph != nil:
		q.ph = *b.Ph
	case b.Frac != nil:
		q.ph = q.frac * (1 - q.alpha)
	default:
		return q, fmt.Errorf("oracle: query requires ph or frac")
	}
	return q, nil
}

// MaxBatchCurvePoints bounds the aggregate number of per-horizon values a
// single batch may materialize across its curve queries. Each point is a
// fresh float64 in the response (≈20 bytes once JSON-encoded), so without
// an aggregate cap a well-formed small request — 4096 curve queries at
// k = 4096 — would buffer hundreds of MB; the cap keeps the worst-case
// response around 10 MB.
const MaxBatchCurvePoints = 1 << 19

// BatchCtx answers a multi-query request with curve reuse planned up
// front: queries are grouped by canonical chain key, each group's curve
// is locked once and extended once to the group's deepest horizon, and
// the independent groups execute on a runner.ForEach pool (workers ≤ 0
// selects all CPUs). Results arrive in request order; per-query failures
// are reported in their slot without failing the batch. A batch whose
// valid curve queries together exceed MaxBatchCurvePoints is rejected
// whole; an invalid slot only counts as its own error.
// Per-group lock waits and DP work are recorded as spans of the request
// trace carried by ctx; group workers share the one trace (span
// recording is atomic).
func (o *Oracle) BatchCtx(ctx context.Context, queries []BatchQuery, workers int) ([]BatchResult, BatchPlan, error) {
	tr := telemetry.TraceFrom(ctx)
	o.batchQ.Add(1)
	// Validate every slot before anything else: an invalid slot earns its
	// own error below, and only valid curve slots count toward the cap.
	qs := make([]query, len(queries))
	errs := make([]error, len(queries))
	points := 0
	for i := range queries {
		qs[i], errs[i] = queries[i].query()
		if errs[i] == nil && qs[i].op == "curve" {
			points += qs[i].k
		}
	}
	if points > MaxBatchCurvePoints {
		return nil, BatchPlan{}, fmt.Errorf("oracle: batch requests %d curve points, limit %d", points, MaxBatchCurvePoints)
	}
	out := make([]BatchResult, len(queries))
	plan := BatchPlan{Queries: len(queries)}

	// Plan: resolve each query to its canonical chain and group by key.
	type group struct {
		e       *entry
		maxK    int
		indices []int
	}
	groups := make(map[Key]*group)
	var order []*group
	for i := range queries {
		out[i].Op = queries[i].Op
		q := &qs[i]
		// Planning probes many keys; per-query hit/miss attrs would only
		// churn the root span's slots, so the lookup goes untraced here —
		// the per-group spans below carry the batch's tree instead.
		var e *entry
		err := errs[i]
		if err == nil {
			e, err = o.lookup(q, nil)
		}
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		o.opCounter(q.op).Add(1)
		g, ok := groups[e.key]
		if !ok {
			g = &group{e: e}
			groups[e.key] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
		// Depth queries drive their own upper-curve extension; every
		// other op reads the main curve at k.
		if q.op != "depth" && q.k > g.maxK {
			g.maxK = q.k
			plan.MaxK = max(plan.MaxK, q.k)
		}
	}
	plan.Groups = len(order)

	// Execute: one entry lock and at most one extension per group; groups
	// are independent chains, so they fan out across the pool. Workers
	// write only out[i] for their group's indices — never racing.
	err := runner.ForEach(workers, len(order), func(gi int) error {
		g := order[gi]
		sp := tr.StartSpan("batch_group", tr.Root())
		sp.SetValue(int64(len(g.indices)))
		defer sp.End()
		o.lockEntry(g.e, tr)
		defer g.e.mu.Unlock()
		if g.maxK > 0 {
			if err := o.extendLocked(g.e, g.maxK, true, tr); err != nil {
				for _, i := range g.indices {
					out[i].Error = err.Error()
				}
				return nil
			}
		}
		for _, i := range g.indices {
			var a answer
			if err := o.answerLocked(g.e, &qs[i], &a, tr); err != nil {
				out[i].Error = err.Error()
				continue
			}
			out[i].fill(qs[i].op, &a)
		}
		return nil
	})
	return out, plan, err
}

// fill writes a successful answer into the result's fields for op.
func (res *BatchResult) fill(op string, a *answer) {
	switch op {
	case "depth":
		res.Depth = a.depth
	case "curve":
		res.Curve = a.curve
	case "failure", "cell":
		p := a.p
		res.P = &p
	case "bracket":
		lo, hi := a.lower, a.upper
		res.Lower, res.Upper = &lo, &hi
	}
}
