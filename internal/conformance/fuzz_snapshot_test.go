package conformance

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"multihonest/internal/oracle"
)

// pristineSnapshot builds one small but fully featured snapshot — two
// parameter points, main curves and a bracket's pruned chain — exactly
// once per test binary, and returns its bytes plus the entries a clean
// decode yields.
var pristineSnapshot = sync.OnceValues(func() ([]byte, []oracle.SnapshotEntry) {
	o := oracle.New(8)
	ctx := context.Background()
	for _, pt := range []struct{ alpha, frac float64 }{{0.30, 0.5}, {0.1234, 0.9}} {
		ph := pt.frac * (1 - pt.alpha)
		if _, err := o.SettlementCurveCtx(ctx, pt.alpha, ph, 40); err != nil {
			panic(err)
		}
		if _, _, err := o.SettlementBracketCtx(ctx, pt.alpha, ph, 40, 1e-30); err != nil {
			panic(err)
		}
	}
	var buf bytes.Buffer
	if _, err := o.WriteSnapshot(&buf); err != nil {
		panic(err)
	}
	entries, stats, err := oracle.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil || stats.Damaged() {
		panic("pristine snapshot does not decode cleanly")
	}
	return buf.Bytes(), entries
})

// FuzzSnapshotDecode pins the decoder's safety contract on arbitrary
// bytes: it never panics, never allocates curves larger than the input
// stream can legitimately encode (every float64 costs 8 payload bytes),
// and never lets corrupted bytes masquerade as valid state — every
// entry that survives decoding a mutated pristine snapshot must be
// byte-identical to an entry of the pristine decode, with the damage
// reported in the stats.
func FuzzSnapshotDecode(f *testing.F) {
	blob, _ := pristineSnapshot()
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte("MHSNAP01"))
	f.Add([]byte("MHSNAP00garbage"))
	f.Add(blob[:len(blob)/2])
	f.Add(append(append([]byte{}, blob...), blob[8:]...)) // doubled entries
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, stats, err := oracle.DecodeSnapshot(bytes.NewReader(data))
		if err == nil {
			floats := 0
			for i := range entries {
				e := &entries[i]
				if len(e.Lower) != len(e.Drop) {
					t.Fatalf("entry %d: lower/drop length mismatch %d/%d", i, len(e.Lower), len(e.Drop))
				}
				floats += len(e.Lower) + len(e.Drop)
				for _, u := range e.Upper {
					if len(u.Lower) != len(u.Drop) {
						t.Fatalf("entry %d: upper curve length mismatch", i)
					}
					floats += len(u.Lower) + len(u.Drop)
				}
			}
			if floats*8 > len(data) {
				t.Fatalf("decoder conjured %d floats from %d input bytes", floats, len(data))
			}
			if stats.Bytes > int64(len(data)) {
				t.Fatalf("stats claim %d bytes consumed of %d", stats.Bytes, len(data))
			}
		}

		// Mutation mode: flip one bit of the pristine snapshot at an
		// input-chosen position. Anything the decoder still returns must
		// be bitwise pristine, and the flip itself must be reported.
		if len(data) < 3 {
			return
		}
		pristine, want := pristineSnapshot()
		pos := (int(data[0])<<8 | int(data[1])) % len(pristine)
		mask := data[2]
		if mask == 0 {
			mask = 0x01
		}
		mutated := append([]byte(nil), pristine...)
		mutated[pos] ^= mask
		got, mstats, merr := oracle.DecodeSnapshot(bytes.NewReader(mutated))
		if merr == nil && !mstats.Damaged() && len(got) == len(want) {
			t.Fatalf("bit flip at byte %d mask %#x went entirely undetected", pos, mask)
		}
		for i := range got {
			if !entryPristine(&got[i], want) {
				t.Fatalf("flip at byte %d mask %#x: decoded entry %d passed validation but differs from pristine state", pos, mask, i)
			}
		}
	})
}

// entryPristine reports whether e is byte-identical to one of the
// pristine entries. Readouts compare by their bits: a horizon no rung
// has published is NaN in both slices, and NaN equals nothing under ==.
func entryPristine(e *oracle.SnapshotEntry, pristine []oracle.SnapshotEntry) bool {
	for i := range pristine {
		if sameEntry(e, &pristine[i]) {
			return true
		}
	}
	return false
}

func sameEntry(a, b *oracle.SnapshotEntry) bool {
	if a.Key != b.Key || !sameBits(a.Lower, b.Lower) || !sameBits(a.Drop, b.Drop) || len(a.Upper) != len(b.Upper) {
		return false
	}
	for i := range a.Upper {
		u, v := &a.Upper[i], &b.Upper[i]
		if u.Cap != v.Cap || !sameBits(u.Lower, v.Lower) || !sameBits(u.Drop, v.Drop) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
