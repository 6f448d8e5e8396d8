package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// The server's live heap is small — cache entries hold readouts, not
// lattice grids — so under the default GOGC=100 its heap goal would be a
// few MB and the per-request garbage of the HTTP path would trigger a GC
// every few hundred requests. The GC floor raises the heap goal to
// max(gcFloor, 2 × live heap): a small server collects as if its live
// heap were gcFloor/2, and a large one as under GOGC=100.
const gcFloor = 48 << 20

// runtimeHeapMin is the Go runtime's minimum heap goal at GOGC=100. The
// runtime scales it with GOGC, so a GOGC above 100·gcFloor/runtimeHeapMin
// would lift the goal above gcFloor even with an empty heap.
const runtimeHeapMin = 4 << 20

// gcPercent returns the GOGC that puts the heap goal, live·(1+GOGC/100),
// at max(gcFloor, 2·live): never below 100, never above the percent at
// which the scaled runtime minimum alone reaches gcFloor.
func gcPercent(live uint64) int {
	const most = 100 * gcFloor / runtimeHeapMin
	if live == 0 {
		return most
	}
	if 2*live >= gcFloor {
		return 100
	}
	return int(min(100*(gcFloor-live)/live, most))
}

// installGCFloor keeps the heap goal at max(gcFloor, 2 × live heap) by
// re-deriving GOGC from the live heap after every GC cycle. It leaves the
// runtime alone when the operator set GOGC or GOMEMLIMIT, and reports
// whether it installed itself.
func installGCFloor() bool {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return false
	}
	debug.SetGCPercent(gcPercent(0))
	armGCFloor()
	return true
}

// gcSentinel is a heap object whose finalizer runs once per GC cycle: the
// finalizer of an unreachable sentinel runs after the cycle that found
// it, and arms the next one. It holds a pointer so the runtime's tiny
// allocator, which batches pointer-free objects, gives it its own slot.
type gcSentinel struct{ _ *byte }

func armGCFloor() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(live)
		if live[0].Value.Kind() == metrics.KindUint64 {
			debug.SetGCPercent(gcPercent(live[0].Value.Uint64()))
		}
		armGCFloor()
	})
}
