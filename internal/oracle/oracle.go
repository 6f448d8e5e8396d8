// Package oracle is the long-lived, goroutine-safe settlement query engine:
// the layer that turns the repo's batch computations — confirmation depths,
// settlement curves and brackets, Table-1 cells — into an always-on service
// that answers them from a cache of live lattice curves.
//
// # Key canonicalization
//
// Every query names a parameter point (α, ph). The oracle quantizes it onto
// the integer basis-point grid of settlement.MakeKey — (αBP, fracBP) with
// frac = ph/(1−α) — and reconstructs the parameters *from the canonical
// key* before building anything. Two queries within half a basis point of
// each other therefore share one cache entry and receive byte-identical
// answers, and a parameter arriving as derived arithmetic (frac·(1−α))
// hits the same entry as the literal it rounds to.
//
// # Coalescing and in-place extension
//
// Each cache entry owns the incremental lattice.Curve handles for its
// parameter point, guarded by a per-entry mutex. Concurrent misses for the
// same key converge on the same entry: the first goroutine to take the
// entry lock runs the one DP build, the rest block on the lock and then
// find their horizon already published (a published horizon is never
// recomputed) — miss coalescing without a separate singleflight table. A
// query for a horizon not on record extends the curve in place under the
// same lock (see the Curve concurrency contract in internal/lattice): a
// curve query fills every horizon up to k, a single-horizon query runs
// only its horizon's ladder rung (Curve.Publish). A hot parameter point
// thus computes each horizon once; everything after is a slice read.
//
// # Readout-only residency
//
// A resting entry holds only its curves' readouts — O(k) float64s per
// chain — never a lattice engine's O(cap²) mass grid. Once a request's DP
// work on an entry is done (the main curve's extension, or a depth
// query's whole doubling search over an upper-bound chain), the oracle
// releases the engine under the entry lock (lattice.Curve.Release). A
// later query for a horizon not on record rebuilds its rung's engine and
// replays from step zero, so its answer is
// byte-identical to that of a curve that kept its engine
// (readout-residency-identity). The grid is live only while a request
// is extending, so resident memory is O(k) per entry plus the grids of
// in-flight extensions, and resident_curve_bytes counts readouts.
//
// # Eviction
//
// Entries live in an LRU list capped at MaxEntries. Eviction unlinks the
// entry from the cache; goroutines still holding the orphan finish their
// queries on it safely (the entry is self-contained) and it is collected
// when they drop it.
package oracle

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"multihonest/internal/charstring"
	"multihonest/internal/lattice"
	"multihonest/internal/settlement"
	"multihonest/internal/telemetry"
)

// DefaultMaxEntries is the cache capacity used when New is given a
// non-positive one: generous for the basis-point grid of realistic
// parameter sweeps while bounding resident curve memory. Entries rest on
// readouts alone, so a full default cache at the deepest horizon holds
// about 1024 · 2 · 4096 float64s (~64 MB, plus upper-bound chains).
const DefaultMaxEntries = 1024

// MaxQueryHorizon bounds the horizon of curve, cell and bracket queries.
// The exact chain's grid is O(k²) floats, so an unbounded client k would
// be an unbounded allocation (k = 4096 is ~0.5 GB); queries past the cap
// are rejected, not clamped, so callers never mistake a truncated answer
// for the one they asked for. The grid lives only while a request
// extends (see Readout-only residency), so worst-case resident memory is
// MaxEntries · O(MaxQueryHorizon) readouts plus one O(MaxQueryHorizon²)
// grid per extension in flight.
const MaxQueryHorizon = 4096

// MaxDepthKMax bounds the kmax of confirmation-depth searches. The
// upper-bound chain has fixed geometry (memory O(cap²) with cap ≤ 4096
// from CapForTarget), so the bound limits per-request CPU, not memory.
const MaxDepthKMax = 1 << 20

// maxUpperCurvesPerEntry bounds the per-entry map of cached upper-bound
// chains (one per distinct saturation cap): each holds the readouts of a
// search up to its kmax (up to MaxDepthKMax float64s per slice), and an
// adversarial spread of targets could otherwise accrete thousands.
// Realistic traffic uses a handful of targets; past the bound an
// arbitrary cached cap is dropped and rebuilt on demand.
const maxUpperCurvesPerEntry = 8

// Key is the canonical cache identity of one chain: a parameter point on
// the integer basis-point grid plus the pruning threshold its curves were
// swept with (curves at different τ are different chains and never share
// an entry). TauBits is the IEEE-754 bit pattern of τ so the struct stays
// comparable.
type Key struct {
	AlphaBP int    // round(10⁴·α), as in settlement.Key
	FracBP  int    // round(10⁴·ph/(1−α)), as in settlement.Key
	TauBits uint64 // math.Float64bits of the pruning threshold
}

// Alpha returns the canonical adversarial-slot probability of the key.
func (k Key) Alpha() float64 { return settlement.Key{AlphaBP: k.AlphaBP}.Alpha() }

// HonestFraction returns the canonical Pr[h]/(1−α) of the key.
func (k Key) HonestFraction() float64 {
	return settlement.Key{FracBP: k.FracBP}.HonestFraction()
}

// Ph returns the canonical uniquely honest probability frac·(1−α).
func (k Key) Ph() float64 { return k.HonestFraction() * (1 - k.Alpha()) }

// Tau returns the pruning threshold of the key's chain.
func (k Key) Tau() float64 { return math.Float64frombits(k.TauBits) }

// entry is one resident parameter point: the incremental curves for its
// chain, guarded by the entry mutex. Entries are self-contained so an
// evicted entry keeps serving the goroutines already holding it.
type entry struct {
	key  Key
	comp *settlement.Computer
	elem *list.Element

	mu    sync.Mutex
	curve *lattice.Curve         // the τ-chain under the X∞ initial law
	upper map[int]*lattice.Curve // saturation cap → rigorous upper-bound chain

	// bytes is the entry's contribution currently recorded in the global
	// resident-bytes gauge — its curves' readout slices, since a resting
	// entry holds no engine — stored atomically so eviction can claim it
	// without taking the (possibly long-held) entry lock. The eviction
	// protocol is claim-by-swap: whoever swaps bytes to 0 subtracts exactly
	// what it swapped out, and a mutator that finds evicted set after
	// recording undoes its own recording the same way — every interleaving
	// nets to the entry's exact contribution being removed (see
	// accountLocked).
	bytes   atomic.Int64
	evicted atomic.Bool
}

// Stats is a point-in-time snapshot of the oracle's counters; /metrics
// exports the same atomics (see Instrument).
type Stats struct {
	Entries            int   `json:"entries"`
	Hits               int64 `json:"hits"`
	Misses             int64 `json:"misses"`
	Evictions          int64 `json:"evictions"`
	CoalescedWaits     int64 `json:"coalesced_waits"`
	Builds             int64 `json:"builds"`
	Extends            int64 `json:"extends"`
	BuildNanos         int64 `json:"build_nanos"`
	ExtendNanos        int64 `json:"extend_nanos"`
	LatticePublished   int64 `json:"lattice_steps_published"`
	LatticeReplayed    int64 `json:"lattice_steps_replayed"`
	ResidentCurveBytes int64 `json:"resident_curve_bytes"`
	DepthQueries       int64 `json:"depth_queries"`
	CurveQueries       int64 `json:"curve_queries"`
	BracketQueries     int64 `json:"bracket_queries"`
	CellQueries        int64 `json:"cell_queries"`
	BatchQueries       int64 `json:"batch_queries"`
	SnapshotSaves      int64 `json:"snapshot_saves"`
	SnapshotLoaded     int64 `json:"snapshot_loaded"`
	SnapshotBadSects   int64 `json:"snapshot_quarantined_sections"`
}

// Oracle is the concurrent settlement query engine. Construct with New;
// all methods are safe for concurrent use by any number of goroutines.
type Oracle struct {
	maxEntries int

	mu      sync.Mutex // guards entries + lru (never held across a DP build)
	entries map[Key]*entry
	lru     *list.List // front = most recently used

	hits, misses, evictions, coalesced      atomic.Int64
	builds, extends, buildNS, extendNS      atomic.Int64
	stepsPublished, stepsReplayed           atomic.Int64
	residentBytes                           atomic.Int64
	depthQ, curveQ, bracketQ, cellQ, batchQ atomic.Int64
	snapSaves, snapLoaded, snapQuarantined  atomic.Int64

	// met mirrors the counters above into an optional telemetry registry;
	// its zero value is inert (see Instrument in metrics.go).
	met oracleMetrics
}

// New returns an oracle whose cache holds at most maxEntries parameter
// points (non-positive selects DefaultMaxEntries).
func New(maxEntries int) *Oracle {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Oracle{
		maxEntries: maxEntries,
		entries:    make(map[Key]*entry),
		lru:        list.New(),
	}
}

// Canonicalize quantizes (α, ph) onto the oracle's basis-point grid and
// returns the cache key along with the canonical parameters the oracle
// actually computes with. It errors when the canonical point is outside
// the (ǫ, ph)-Bernoulli domain.
func Canonicalize(alpha, ph, tau float64) (Key, charstring.Params, error) {
	// Positive-form guards so NaN inputs are rejected here, not after they
	// have minted a cache key.
	if !(alpha > 0 && alpha < 0.5) {
		return Key{}, charstring.Params{}, fmt.Errorf("oracle: alpha %v outside (0, 0.5)", alpha)
	}
	if !(ph >= 0 && ph <= 1) {
		return Key{}, charstring.Params{}, fmt.Errorf("oracle: ph %v outside [0, 1]", ph)
	}
	if !(tau >= 0) {
		return Key{}, charstring.Params{}, fmt.Errorf("oracle: invalid pruning threshold %v", tau)
	}
	sk := settlement.MakeKey(ph/(1-alpha), 0, alpha)
	key := Key{AlphaBP: sk.AlphaBP, FracBP: sk.FracBP, TauBits: math.Float64bits(tau)}
	p, err := charstring.ParamsFromAlpha(key.Alpha(), key.Ph())
	if err != nil {
		return Key{}, charstring.Params{}, fmt.Errorf("oracle: canonical point (α=%v, ph=%v): %w", key.Alpha(), key.Ph(), err)
	}
	return key, p, nil
}

// lookup returns the resident entry for the query's canonical key,
// creating (and counting a miss for) one when absent. Entry creation is
// cheap — curves build lazily on first extension — so it happens under
// the cache lock; the DP work itself always runs under the entry lock
// only. The outcome is tagged onto the trace's root span as
// cache=hit|miss — literal strings into a preallocated attribute slot,
// so the warm hit path stays allocation-free even fully traced.
func (o *Oracle) lookup(q *query, tr *telemetry.Trace) (*entry, error) {
	if err := q.canonicalize(); err != nil {
		return nil, err
	}
	key := q.key
	o.mu.Lock()
	defer o.mu.Unlock()
	if e, ok := o.entries[key]; ok {
		o.lru.MoveToFront(e.elem)
		o.hits.Add(1)
		tr.Root().SetAttr("cache", "hit")
		return e, nil
	}
	o.misses.Add(1)
	tr.Root().SetAttr("cache", "miss")
	e := &entry{key: key, comp: settlement.New(q.params)}
	e.elem = o.lru.PushFront(e)
	o.entries[key] = e
	for o.lru.Len() > o.maxEntries {
		oldest := o.lru.Back()
		victim := oldest.Value.(*entry)
		o.lru.Remove(oldest)
		delete(o.entries, victim.key)
		// Claim-by-swap (see entry.bytes): mark first, then subtract
		// whatever contribution is recorded right now; a concurrent
		// extension that records afterwards sees the mark and undoes its
		// own recording.
		victim.evicted.Store(true)
		o.residentBytes.Add(-victim.bytes.Swap(0))
		o.evictions.Add(1)
	}
	return e, nil
}

// lockEntry takes the entry lock, counting the acquisition as a coalesced
// wait when another goroutine already holds it (the waiter will reuse
// whatever build or extension the holder completes). The blocked time is
// recorded as a coalesce_wait span under the request's root.
func (o *Oracle) lockEntry(e *entry, tr *telemetry.Trace) {
	if e.mu.TryLock() {
		return
	}
	o.coalesced.Add(1)
	start := time.Now()
	e.mu.Lock()
	tr.AddSpan("coalesce_wait", tr.Root(), start, time.Since(start))
}

// accountLocked refreshes the entry's resident-byte contribution after a
// mutation; the caller holds e.mu (which serializes recorders, so the
// only concurrency is with the evictor's claim-by-swap). Record first,
// then re-check evicted: if the evictor ran, it either claimed our
// recording (its swap saw it) or we claim it back ourselves — either way
// exactly one subtraction lands for whatever was recorded.
func (o *Oracle) accountLocked(e *entry) {
	n := int64(0)
	if e.curve != nil {
		n += e.curve.MemBytes()
	}
	for _, uc := range e.upper {
		n += uc.MemBytes()
	}
	prev := e.bytes.Swap(n)
	o.residentBytes.Add(n - prev)
	if e.evicted.Load() {
		o.residentBytes.Add(-e.bytes.Swap(0))
	}
}

// extendLocked brings the entry's main curve to horizon k — every
// horizon 1..k when whole (curve queries and batch groups), horizon k
// alone otherwise, which runs only k's ladder rung — records the work as
// a cold build (first steps of this chain) or an extension, then releases
// the engine so the entry rests on its readouts. The caller holds e.mu.
func (o *Oracle) extendLocked(e *entry, k int, whole bool, tr *telemetry.Trace) error {
	if e.curve == nil {
		e.curve = e.comp.Curve(e.key.Tau())
	}
	cv := e.curve
	if whole && cv.HasPrefix(k) || !whole && cv.Has(k) {
		return nil
	}
	w := startWork(cv)
	var err error
	if whole {
		err = cv.Extend(k)
	} else {
		err = cv.Publish(k)
	}
	cv.Release()
	if err == nil {
		o.recordWork(e, cv, w, tr)
	}
	o.accountLocked(e)
	return err
}

// upperLocked returns the entry's rigorous upper-bound curve for the
// given saturation cap, creating it empty when absent. The caller holds
// e.mu.
func (o *Oracle) upperLocked(e *entry, cap int) *lattice.Curve {
	if e.upper == nil {
		e.upper = make(map[int]*lattice.Curve)
	}
	uc, ok := e.upper[cap]
	if !ok {
		if len(e.upper) >= maxUpperCurvesPerEntry {
			for c := range e.upper {
				delete(e.upper, c)
				break
			}
		}
		uc = e.comp.UpperCurve(cap)
		e.upper[cap] = uc
	}
	return uc
}

// work is the state of one request's DP work on a curve when it began.
type work struct {
	start               time.Time
	cold                bool // the curve had no readouts
	published, replayed int64
}

// startWork marks the start of DP work on cv.
func startWork(cv *lattice.Curve) work {
	w := work{start: time.Now(), cold: cv.Len() == 0}
	w.published, w.replayed = cv.Work()
	return w
}

// recordWork classifies finished DP work w on entry e's curve cv: a cold
// build when cv had no readouts, an extension otherwise (which replays
// from step zero when the curve had released its engine). The duration
// lands in the matching latency histogram (with an exemplar linking the
// bucket to this trace), the lattice steps in the published/replayed
// counters, and a build/extend span under the request's root carries the
// canonical key and the number of horizons published. DP work is
// inherently a cold path, so the span's key attribute may allocate.
func (o *Oracle) recordWork(e *entry, cv *lattice.Curve, w work, tr *telemetry.Trace) {
	d := time.Since(w.start)
	pub, rep := cv.Work()
	o.stepsPublished.Add(pub - w.published)
	o.stepsReplayed.Add(rep - w.replayed)
	name, trID := "extend", ""
	if tr != nil {
		trID = tr.ID
	}
	if w.cold {
		name = "build"
		o.builds.Add(1)
		o.buildNS.Add(int64(d))
		o.met.build.ObserveWithExemplar(d.Seconds(), trID)
	} else {
		o.extends.Add(1)
		o.extendNS.Add(int64(d))
		o.met.extend.ObserveWithExemplar(d.Seconds(), trID)
	}
	if sp := tr.AddSpan(name, tr.Root(), w.start, d); sp.Active() {
		sp.SetAttr("key", fmt.Sprintf("%d/%d", e.key.AlphaBP, e.key.FracBP))
		sp.SetValue(pub - w.published)
	}
}

// query is one oracle query, whichever door it came in by: a GET route
// (parseQuery), a batch slot (BatchQuery.query) or one of the …Ctx
// methods. ph is already resolved (ph = frac·(1−α) when the query gave
// frac); frac is read only by cell, whose validation bounds it.
type query struct {
	op              string // depth, curve, failure, cell or bracket
	alpha, ph, frac float64
	k               int // the horizon, or kmax for depth
	target, tau     float64

	// key and params hold Canonicalize(alpha, ph, tau) once keyed is set,
	// so a query the cluster tier canonicalized to route it is not
	// canonicalized again to look it up.
	key    Key
	params charstring.Params
	keyed  bool
}

// canonicalize resolves the query's canonical key and parameters, once.
func (q *query) canonicalize() error {
	if q.keyed {
		return nil
	}
	var err error
	q.key, q.params, err = Canonicalize(q.alpha, q.ph, q.tau)
	q.keyed = err == nil
	return err
}

// validate runs the checks of the query's op before it reaches the
// cache, so an invalid query can neither create nor evict an entry. The
// horizon bound is the service's memory bound, kmax its CPU bound; the
// positive-form float checks also reject NaN.
func (q *query) validate() error {
	switch q.op {
	case "depth":
		if !(q.target > 0 && q.target < 1) {
			return fmt.Errorf("oracle: target %v outside (0,1)", q.target)
		}
		if q.k < 1 || q.k > MaxDepthKMax {
			return fmt.Errorf("oracle: kmax %d outside [1, %d]", q.k, MaxDepthKMax)
		}
		return nil
	case "cell":
		if !(q.frac >= 0 && q.frac <= 1) {
			return fmt.Errorf("oracle: honest fraction %v outside [0, 1]", q.frac)
		}
	case "curve", "failure", "bracket":
	default:
		return fmt.Errorf("oracle: unknown op %q", q.op)
	}
	if q.k < 1 || q.k > MaxQueryHorizon {
		return fmt.Errorf("oracle: k = %d outside [1, %d]", q.k, MaxQueryHorizon)
	}
	return nil
}

// answer is one query's result, read under its entry's lock: depth for
// depth, p for failure and cell, [lower, upper] for bracket, curve for
// curve. key is the entry it was read from — the canonical point the
// oracle actually computed at.
type answer struct {
	key          Key
	depth        int
	p            float64
	lower, upper float64
	curve        []float64
}

// ask answers one query: validate, look up its entry, count it, take
// the entry lock, extend the main curve to the query's horizon (a depth
// query drives its own upper-bound chain instead) and read the answer.
// DP and lock-wait time are recorded as spans of tr.
func (o *Oracle) ask(q *query, tr *telemetry.Trace) (answer, error) {
	if err := q.validate(); err != nil {
		return answer{}, err
	}
	e, err := o.lookup(q, tr)
	if err != nil {
		return answer{}, err
	}
	o.opCounter(q.op).Add(1)
	o.lockEntry(e, tr)
	defer e.mu.Unlock()
	if q.op != "depth" {
		if err := o.extendLocked(e, q.k, q.op == "curve", tr); err != nil {
			return answer{}, err
		}
	}
	a := answer{key: e.key}
	if err := o.answerLocked(e, q, &a, tr); err != nil {
		return answer{}, err
	}
	return a, nil
}

// opCounter returns the per-op query counter of a validated query's op
// ("failure" and "cell" share one). Every path counts a query once it
// has passed validation and resolved its cache entry, so
// oracle_queries_total{op} means the same for GET and batch queries.
func (o *Oracle) opCounter(op string) *atomic.Int64 {
	switch op {
	case "depth":
		return &o.depthQ
	case "curve":
		return &o.curveQ
	case "bracket":
		return &o.bracketQ
	}
	return &o.cellQ
}

// answerLocked reads one validated query's answer from its entry; the
// caller holds the entry lock and, unless the query is a depth search,
// has extended the main curve to at least the query's horizon. It is the
// one readout of ask and the batch executor.
func (o *Oracle) answerLocked(e *entry, q *query, a *answer, tr *telemetry.Trace) error {
	var err error
	switch q.op {
	case "depth":
		a.depth, err = o.depthLocked(e, q.target, q.k, tr)
	case "curve":
		a.curve = e.curve.ValuesUpTo(q.k)
	case "failure", "cell":
		a.p = e.curve.Lower(q.k)
	case "bracket":
		a.lower, a.upper = e.curve.Bracket(q.k)
	}
	return err
}

// SettlementCurveCtx returns the exact violation probability for every
// horizon 1..k at parameter point (α, ph) — core.Analyzer.SettlementCurve
// served from the cache. DP and lock-wait time are recorded as spans of
// the request trace carried by ctx (if any).
func (o *Oracle) SettlementCurveCtx(ctx context.Context, alpha, ph float64, k int) ([]float64, error) {
	a, err := o.ask(&query{op: "curve", alpha: alpha, ph: ph, k: k}, telemetry.TraceFrom(ctx))
	return a.curve, err
}

// SettlementFailureCtx returns the exact violation probability at
// horizon k — the Table 1 quantity, served from the cache and traced
// through ctx.
func (o *Oracle) SettlementFailureCtx(ctx context.Context, alpha, ph float64, k int) (float64, error) {
	a, err := o.ask(&query{op: "failure", alpha: alpha, ph: ph, k: k}, telemetry.TraceFrom(ctx))
	return a.p, err
}

// TableCellCtx answers a Table-1 cell query in the table's native
// coordinates — honest fraction Pr[h]/(1−α), horizon k, column α —
// traced through ctx.
func (o *Oracle) TableCellCtx(ctx context.Context, frac float64, k int, alpha float64) (float64, error) {
	a, err := o.ask(&query{op: "cell", alpha: alpha, ph: frac * (1 - alpha), frac: frac, k: k}, telemetry.TraceFrom(ctx))
	return a.p, err
}

// SettlementBracketCtx returns the rigorous bracket [lower, upper] at
// horizon k computed with pruning threshold tau (τ = 0 collapses the
// bracket to the exact value), traced through ctx. Brackets at different
// τ are different chains and cache under different keys.
func (o *Oracle) SettlementBracketCtx(ctx context.Context, alpha, ph float64, k int, tau float64) (lower, upper float64, err error) {
	a, err := o.ask(&query{op: "bracket", alpha: alpha, ph: ph, k: k, tau: tau}, telemetry.TraceFrom(ctx))
	return a.lower, a.upper, err
}

// ConfirmationDepthCtx returns the smallest depth k ≤ kmax whose
// certified settlement-failure bound is at most target —
// core.Analyzer's doubling search run over the cached upper-bound chain,
// so a repeated depth query at one parameter point is answered from the
// chain's readouts without lattice work, and only a query that searches
// deeper pays for a sweep. Traced through ctx.
func (o *Oracle) ConfirmationDepthCtx(ctx context.Context, alpha, ph, target float64, kmax int) (int, error) {
	a, err := o.ask(&query{op: "depth", alpha: alpha, ph: ph, target: target, k: kmax}, telemetry.TraceFrom(ctx))
	return a.depth, err
}

// depthLocked is answerLocked's depth readout: the doubling search,
// under the entry lock. The search extends the upper-bound chain step
// after step on one engine, which is released once the search is over;
// a search that ran lattice steps records them as one build or extension.
func (o *Oracle) depthLocked(e *entry, target float64, kmax int, tr *telemetry.Trace) (int, error) {
	uc := o.upperLocked(e, e.comp.CapForTarget(target))
	var w work
	grew := false
	extend := func(k int) (*lattice.Curve, error) {
		if !grew && !uc.HasPrefix(k) {
			w, grew = startWork(uc), true
		}
		return uc, uc.Extend(k)
	}
	d, err := settlement.DepthSearch(extend, target, kmax)
	if grew {
		uc.Release()
		o.recordWork(e, uc, w, tr)
		o.accountLocked(e)
	}
	return d, err
}

// Stats returns a snapshot of the oracle's counters.
func (o *Oracle) Stats() Stats {
	o.mu.Lock()
	n := len(o.entries)
	o.mu.Unlock()
	return Stats{
		Entries:            n,
		Hits:               o.hits.Load(),
		Misses:             o.misses.Load(),
		Evictions:          o.evictions.Load(),
		CoalescedWaits:     o.coalesced.Load(),
		Builds:             o.builds.Load(),
		Extends:            o.extends.Load(),
		BuildNanos:         o.buildNS.Load(),
		ExtendNanos:        o.extendNS.Load(),
		LatticePublished:   o.stepsPublished.Load(),
		LatticeReplayed:    o.stepsReplayed.Load(),
		ResidentCurveBytes: o.residentBytes.Load(),
		DepthQueries:       o.depthQ.Load(),
		CurveQueries:       o.curveQ.Load(),
		BracketQueries:     o.bracketQ.Load(),
		CellQueries:        o.cellQ.Load(),
		BatchQueries:       o.batchQ.Load(),
		SnapshotSaves:      o.snapSaves.Load(),
		SnapshotLoaded:     o.snapLoaded.Load(),
		SnapshotBadSects:   o.snapQuarantined.Load(),
	}
}
