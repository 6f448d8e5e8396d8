package telemetry

import "runtime/metrics"

// RegisterRuntime exports the Go runtime's garbage-collector series on
// reg, read from runtime/metrics at exposition time:
//
//	go_gc_cycles_total      completed GC cycles (/gc/cycles/total:gc-cycles)
//	go_gc_heap_live_bytes   heap marked live by the last GC (/gc/heap/live:bytes)
//
// Divided by the request counters, the first gives GC cycles per request;
// the second is the live heap the collector paces its next cycle from.
func RegisterRuntime(reg *Registry) {
	reg.CounterFunc("go_gc_cycles_total", "Completed GC cycles.", runtimeUint64("/gc/cycles/total:gc-cycles"))
	reg.GaugeFunc("go_gc_heap_live_bytes", "Heap bytes marked live by the last GC cycle.", runtimeUint64("/gc/heap/live:bytes"))
}

// runtimeUint64 returns a reader of one uint64 runtime/metrics series
// (0 if this runtime does not support it).
func runtimeUint64(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(s[0].Value.Uint64())
	}
}
