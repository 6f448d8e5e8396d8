package telemetry

// Accessors that only the package's tests read.

// Counter registers (or retrieves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookupFamily(name, help, kindCounter, nil, nil)
	return f.seriesFor(nil, func() *series { return &series{c: &Counter{}} }).c
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts by
// linear interpolation inside the selected bucket — the same estimator as
// Prometheus's histogram_quantile. Observations in the +Inf bucket clamp
// to the largest finite bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := h.snapshot()
	cum := make([]float64, len(counts))
	var total float64
	for i, c := range counts {
		total += float64(c)
		cum[i] = total
	}
	return quantileFromCumulative(h.bounds, cum, q)
}

// Bundles reports how many bundles this watchdog has written.
func (w *Watchdog) Bundles() int64 { return w.bundles.Load() }
