package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"
)

// TestGCPercent pins the heap goal live·(1+GOGC/100) the floor asks for:
// gcFloor for a small live heap (with the percent capped where the
// runtime's scaled 4 MiB minimum reaches gcFloor), twice the live heap
// past gcFloor/2.
func TestGCPercent(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		live uint64
		want int
	}{
		{0, 1200},
		{1 * mib, 1200}, // 100·47 = 4700 would put the scaled minimum at 188 MiB
		{10 * mib, 380}, // goal 10·4.8 = 48 MiB
		{30 * mib, 100}, // goal 60 MiB = 2 × live
		{1 << 30, 100},  // goal 2 GiB
		{24 * mib, 100}, // the two regimes meet at gcFloor/2
		{4 * mib, 1100}, // goal 4·12 = 48 MiB
	} {
		if got := gcPercent(c.live); got != c.want {
			t.Errorf("gcPercent(%d MiB) = %d, want %d", c.live/mib, got, c.want)
		}
	}
}

// TestGCFloorHook checks that the hook re-derives GOGC after every GC
// cycle: a percent set behind its back is put back after the next cycle,
// twice in a row.
func TestGCFloorHook(t *testing.T) {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		t.Skip("GOGC or GOMEMLIMIT is set; the floor defers to them")
	}
	if !installGCFloor() {
		t.Fatal("installGCFloor declined with GOGC and GOMEMLIMIT unset")
	}
	read := func() int64 {
		s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
	for round := 0; round < 2; round++ {
		debug.SetGCPercent(7)
		runtime.GC()
		deadline := time.Now().Add(5 * time.Second)
		for read() == 7 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: GOGC still 7 after a GC cycle", round)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if p := read(); p < 100 || p > 1200 {
			t.Fatalf("round %d: GOGC = %d, want within [100, 1200]", round, p)
		}
	}
}
