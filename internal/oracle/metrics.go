package oracle

import "multihonest/internal/telemetry"

// oracleMetrics holds the oracle's optional telemetry handles. The zero
// value (all nil) is fully inert: every telemetry recording method is
// nil-receiver-safe, so an uninstrumented oracle pays one nil check per
// event and allocates nothing. Per-op counter handles are resolved once
// here so the hot path never takes the registry's family lock.
type oracleMetrics struct {
	build, extend *telemetry.Histogram
}

// Instrument registers the oracle's metric families on reg and starts
// recording into them alongside the existing Stats counters. Call once,
// before the oracle begins serving queries: the handles are installed
// with a plain write and read without synchronization afterwards.
//
// Every counter family — the per-op query counts, the cache statistics
// and the snapshot counters — is exported as a func-backed series over
// the atomics the oracle already maintains for Stats: the warm serve
// path pays no second counter write, and /metrics cannot drift from
// Stats.
// Only the build/extend latency histograms record inline, and those sit
// on the cold path by definition.
func (o *Oracle) Instrument(reg *telemetry.Registry) {
	queries := reg.CounterVec("oracle_queries_total", "Queries that passed validation and reached their cache entry, by operation.", "op")
	queries.Func(func() float64 { return float64(o.depthQ.Load()) }, "depth")
	queries.Func(func() float64 { return float64(o.curveQ.Load()) }, "curve")
	queries.Func(func() float64 { return float64(o.bracketQ.Load()) }, "bracket")
	queries.Func(func() float64 { return float64(o.cellQ.Load()) }, "cell")
	queries.Func(func() float64 { return float64(o.batchQ.Load()) }, "batch")
	steps := reg.CounterVec("oracle_lattice_steps_total", "Lattice steps run for queries, by whether the step's readout was stored (published) or not (replayed).", "kind")
	steps.Func(func() float64 { return float64(o.stepsPublished.Load()) }, "published")
	steps.Func(func() float64 { return float64(o.stepsReplayed.Load()) }, "replayed")
	o.met = oracleMetrics{
		build:  reg.Histogram("oracle_build_seconds", "Cold DP builds of a chain's curve.", nil),
		extend: reg.Histogram("oracle_extend_seconds", "Curve extensions past the cached horizon.", nil),
	}
	reg.CounterFunc("oracle_cache_hits_total", "Curve-cache lookups that found a resident entry.", func() float64 {
		return float64(o.hits.Load())
	})
	reg.CounterFunc("oracle_cache_misses_total", "Curve-cache lookups that created a new entry.", func() float64 {
		return float64(o.misses.Load())
	})
	reg.CounterFunc("oracle_cache_evictions_total", "Entries evicted by the LRU capacity bound.", func() float64 {
		return float64(o.evictions.Load())
	})
	reg.CounterFunc("oracle_coalesced_waits_total", "Queries that blocked on another goroutine's work on the same entry.", func() float64 {
		return float64(o.coalesced.Load())
	})
	reg.CounterFunc("oracle_snapshot_saves_total", "Snapshots written (checkpoints and shutdown flushes).", func() float64 {
		return float64(o.snapSaves.Load())
	})
	reg.CounterFunc("oracle_snapshot_loaded_total", "Cache entries restored from a snapshot at boot.", func() float64 {
		return float64(o.snapLoaded.Load())
	})
	reg.CounterFunc("oracle_snapshot_quarantined_sections_total", "Snapshot sections rejected as corrupt while loading.", func() float64 {
		return float64(o.snapQuarantined.Load())
	})
	reg.GaugeFunc("oracle_cache_entries", "Resident parameter points in the curve cache.", func() float64 {
		o.mu.Lock()
		n := len(o.entries)
		o.mu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("oracle_resident_curve_bytes", "Bytes of curve state resident across cache entries.", func() float64 {
		return float64(o.residentBytes.Load())
	})
}

// Instrument registers the cluster's metric families on reg. Call once,
// before the cluster starts serving. The forwarding counters are
// func-backed series over the cluster's own atomics — per peer for
// forwards, retries and hedges — so each event is counted once and
// /metrics cannot drift from Stats. Breaker state is exported per peer
// as 0 closed, 1 half-open, 2 open (larger = less available), updated
// on every state transition.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	fw := reg.CounterVec("cluster_forwards_total", "Queries owned by a peer and forwarded to it.", "peer")
	rt := reg.CounterVec("cluster_forward_retries_total", "Extra forward attempts after a failed one.", "peer")
	hg := reg.CounterVec("cluster_hedges_total", "Local computes raced against a slow owner.", "peer")
	bs := reg.GaugeVec("cluster_breaker_state", "Circuit breaker per peer: 0 closed, 1 half-open, 2 open.", "peer")
	reg.CounterFunc("cluster_local_fallbacks_total", "Owner unreachable; query answered locally.", func() float64 {
		return float64(c.fallbacks.Load())
	})
	reg.CounterFunc("cluster_loop_serves_total", "Forwarded requests answered locally (loop prevention).", func() float64 {
		return float64(c.loopServes.Load())
	})
	for p, rp := range c.remote {
		fw.Func(func() float64 { return float64(rp.forwards.Load()) }, p)
		rt.Func(func() float64 { return float64(rp.retries.Load()) }, p)
		hg.Func(func() float64 { return float64(rp.hedges.Load()) }, p)
		rp.brk.stateG = bs.With(p) // registers the series at its closed (0) state
	}
}
