package telemetry

import (
	"runtime"
	"strings"
	"testing"
)

// TestRegisterRuntime scrapes the runtime series through the Prometheus
// text round trip and checks that a forced GC advances the cycle count.
func TestRegisterRuntime(t *testing.T) {
	reg := New()
	RegisterRuntime(reg)
	read := func() (cycles, live float64) {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		sc, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		if cycles, ok = sc.Value("go_gc_cycles_total", nil); !ok {
			t.Fatal("go_gc_cycles_total missing")
		}
		if live, ok = sc.Value("go_gc_heap_live_bytes", nil); !ok {
			t.Fatal("go_gc_heap_live_bytes missing")
		}
		return cycles, live
	}
	runtime.GC()
	c0, live := read()
	if live <= 0 {
		t.Errorf("go_gc_heap_live_bytes = %v after a GC, want > 0", live)
	}
	runtime.GC()
	if c1, _ := read(); c1 <= c0 {
		t.Errorf("go_gc_cycles_total went %v → %v across runtime.GC()", c0, c1)
	}
}
