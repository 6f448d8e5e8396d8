package oracle

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"multihonest/internal/faultfs"
)

// warmOracle builds an oracle with every query type exercised at the
// test points: exact curves, a pruned bracket chain, and a depth search
// (which materializes an upper-bound curve).
func warmOracle(t *testing.T, k int) *Oracle {
	t.Helper()
	o := New(0)
	for _, pt := range testPoints {
		ph := pt.frac * (1 - pt.alpha)
		if _, err := o.SettlementCurveCtx(ctx, pt.alpha, ph, k); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.SettlementBracketCtx(ctx, pt.alpha, ph, k, 1e-30); err != nil {
			t.Fatal(err)
		}
	}
	// One depth search at an easy point so an upper curve is resident.
	if _, err := o.ConfirmationDepthCtx(ctx, 0.25, 0.5*(1-0.25), 1e-4, 4096); err != nil {
		t.Fatal(err)
	}
	return o
}

// coldAnswers is a cold oracle's full answer set at the test points,
// computed once so matrix tests (hundreds of loads) don't pay a DP
// rebuild per comparison.
type coldAnswers struct {
	k      int
	curves [][]float64
	lo, hi []float64
	depth  int
}

func computeColdAnswers(t *testing.T, k int) *coldAnswers {
	t.Helper()
	cold := New(0)
	want := &coldAnswers{k: k}
	for _, pt := range testPoints {
		ph := pt.frac * (1 - pt.alpha)
		c, err := cold.SettlementCurveCtx(ctx, pt.alpha, ph, k)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := cold.SettlementBracketCtx(ctx, pt.alpha, ph, k, 1e-30)
		if err != nil {
			t.Fatal(err)
		}
		want.curves = append(want.curves, c)
		want.lo = append(want.lo, lo)
		want.hi = append(want.hi, hi)
	}
	d, err := cold.ConfirmationDepthCtx(ctx, 0.25, 0.5*(1-0.25), 1e-4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	want.depth = d
	return want
}

// assertAnswersIdentical requires that every answer the loaded oracle
// gives at the warm set is byte-identical to a cold oracle's — the
// corruption-can-cost-latency-never-correctness contract.
func assertAnswersIdentical(t *testing.T, loaded *Oracle, want *coldAnswers) {
	t.Helper()
	for i, pt := range testPoints {
		ph := pt.frac * (1 - pt.alpha)
		lc, err := loaded.SettlementCurveCtx(ctx, pt.alpha, ph, want.k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(lc, want.curves[i]) {
			t.Fatalf("point (%v,%v): loaded curve differs from cold", pt.alpha, pt.frac)
		}
		llo, lhi, err := loaded.SettlementBracketCtx(ctx, pt.alpha, ph, want.k, 1e-30)
		if err != nil {
			t.Fatal(err)
		}
		if llo != want.lo[i] || lhi != want.hi[i] {
			t.Fatalf("point (%v,%v): loaded bracket [%v,%v] != cold [%v,%v]", pt.alpha, pt.frac, llo, lhi, want.lo[i], want.hi[i])
		}
	}
	ld, err := loaded.ConfirmationDepthCtx(ctx, 0.25, 0.5*(1-0.25), 1e-4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if ld != want.depth {
		t.Fatalf("loaded depth %d != cold depth %d", ld, want.depth)
	}
}

// snapshotBytes serializes a warm oracle.
func snapshotBytes(t *testing.T, o *Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := o.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundtrip: encode → decode restores every curve bitwise
// and the restored oracle serves without a single DP build.
func TestSnapshotRoundtrip(t *testing.T) {
	const k = 80
	warm := warmOracle(t, k)
	data := snapshotBytes(t, warm)

	restored := New(0)
	stats, err := restored.LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Damaged() || stats.Quarantined != 0 {
		t.Fatalf("clean snapshot reported damage: %+v", stats)
	}
	if stats.Entries == 0 {
		t.Fatal("no entries loaded")
	}

	// Warm-set queries must be pure reads: zero builds, zero extends.
	for _, pt := range testPoints {
		ph := pt.frac * (1 - pt.alpha)
		want, err := warm.SettlementCurveCtx(ctx, pt.alpha, ph, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.SettlementCurveCtx(ctx, pt.alpha, ph, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("point (%v,%v): restored curve differs", pt.alpha, pt.frac)
		}
		wlo, whi, err := warm.SettlementBracketCtx(ctx, pt.alpha, ph, k, 1e-30)
		if err != nil {
			t.Fatal(err)
		}
		glo, ghi, err := restored.SettlementBracketCtx(ctx, pt.alpha, ph, k, 1e-30)
		if err != nil {
			t.Fatal(err)
		}
		if glo != wlo || ghi != whi {
			t.Fatalf("point (%v,%v): restored bracket differs bitwise", pt.alpha, pt.frac)
		}
	}
	d, err := restored.ConfirmationDepthCtx(ctx, 0.25, 0.5*(1-0.25), 1e-4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := warm.ConfirmationDepthCtx(ctx, 0.25, 0.5*(1-0.25), 1e-4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if d != dw {
		t.Fatalf("restored depth %d != warm depth %d", d, dw)
	}
	if st := restored.Stats(); st.Builds != 0 {
		t.Fatalf("restored oracle ran %d DP builds on warm-set queries; want 0", st.Builds)
	}

	// Deeper than the snapshot: the rebuild must be byte-identical to cold.
	assertAnswersIdentical(t, restored, computeColdAnswers(t, k+40))
}

// TestSnapshotTruncation: every truncation point of a valid snapshot is
// detected (stats.Damaged), never panics, and whatever loads serves
// byte-identical answers.
func TestSnapshotTruncation(t *testing.T) {
	const k = 40
	data := snapshotBytes(t, warmOracle(t, k))
	want := computeColdAnswers(t, k)

	for cut := 0; cut < len(data); cut += 7 {
		o := New(0)
		stats, err := o.LoadSnapshot(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // unusable from byte 0 (magic damaged): fine, detected
		}
		if !stats.Damaged() {
			t.Fatalf("cut at %d/%d undetected: %+v", cut, len(data), stats)
		}
		assertAnswersIdentical(t, o, want)
	}

	// The full file is undamaged.
	o := New(0)
	stats, err := o.LoadSnapshot(bytes.NewReader(data))
	if err != nil || stats.Damaged() {
		t.Fatalf("full file damaged: %+v, %v", stats, err)
	}
}

// TestSnapshotBitFlip: flipping any single byte is always detected
// (checksum or decode error) and never changes a served answer.
func TestSnapshotBitFlip(t *testing.T) {
	const k = 30
	data := snapshotBytes(t, warmOracle(t, k))
	want := computeColdAnswers(t, k)

	stride := 1
	if testing.Short() {
		stride = 37
	}
	for pos := 0; pos < len(data); pos += stride {
		for _, mask := range []byte{0x01, 0x80} {
			mut := bytes.Clone(data)
			mut[pos] ^= mask
			o := New(0)
			stats, err := o.LoadSnapshot(bytes.NewReader(mut))
			if err != nil {
				continue // magic damage: rejected whole, nothing served
			}
			// A flip inside a float64 payload is caught by the CRC; a flip
			// in a length prefix desynchronizes framing and is caught as
			// truncation; a flip in a stored CRC quarantines a good section.
			// All cost coverage, none may cost correctness. Detection is
			// checked at every byte; serving identity (which follows from
			// quarantine + cold rebuild) is sampled to keep the matrix fast.
			if !stats.Damaged() {
				t.Fatalf("flip at byte %d mask %#x undetected: %+v", pos, mask, stats)
			}
			if pos%101 == 0 {
				assertAnswersIdentical(t, o, want)
			}
		}
	}
}

// TestSaveSnapshotFileAtomic: an injected failure at every stage of the
// save protocol (create, write, sync, rename, dir sync) leaves the
// committed snapshot untouched and loadable.
func TestSaveSnapshotFileAtomic(t *testing.T) {
	const k = 30
	warm := warmOracle(t, k)
	dir := t.TempDir()
	path := filepath.Join(dir, "oracle.mhsnap")

	// Commit a good snapshot first.
	if _, err := warm.SaveSnapshotFile(nil, path); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	arm := []struct {
		name string
		prep func(f *faultfs.Flaky)
	}{
		{"create", func(f *faultfs.Flaky) { f.FailCreates(1) }},
		{"short-write", func(f *faultfs.Flaky) { f.LimitWriteBytes(100) }},
		{"sync", func(f *faultfs.Flaky) { f.FailSyncs(1) }},
		{"rename", func(f *faultfs.Flaky) { f.FailRenames(1) }},
	}
	for _, tc := range arm {
		t.Run(tc.name, func(t *testing.T) {
			flaky := faultfs.NewFlaky(faultfs.OS)
			tc.prep(flaky)
			if _, err := warm.SaveSnapshotFile(flaky, path); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("save survived injected %s fault: %v", tc.name, err)
			}
			now, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(now, committed) {
				t.Fatal("committed snapshot changed under a failed save")
			}
			o := New(0)
			stats, err := o.LoadSnapshotFile(nil, path)
			if err != nil || stats.Damaged() {
				t.Fatalf("committed snapshot unloadable after failed save: %+v, %v", stats, err)
			}
		})
	}
}

// TestLoadSnapshotFileCrashDebris: a checkpointer killed mid-write
// leaves a torn .tmp behind; boot must ignore and remove it, load the
// committed snapshot, and serve byte-identically.
func TestLoadSnapshotFileCrashDebris(t *testing.T) {
	const k = 30
	warm := warmOracle(t, k)
	dir := t.TempDir()
	path := filepath.Join(dir, "oracle.mhsnap")
	if _, err := warm.SaveSnapshotFile(nil, path); err != nil {
		t.Fatal(err)
	}

	// The crash: a new save that dies after 1000 bytes, leaving the torn
	// temp file on disk exactly as the page cache would have.
	flaky := faultfs.NewFlaky(faultfs.OS)
	flaky.LimitWriteBytes(1000)
	full := snapshotBytes(t, warm)
	f, err := flaky.Create(path + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn write: %v", err)
	}
	f.Close()
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("crash debris missing: %v", err)
	}

	o := New(0)
	stats, err := o.LoadSnapshotFile(nil, path)
	if err != nil || stats.Damaged() || stats.Entries == 0 {
		t.Fatalf("boot with debris failed: %+v, %v", stats, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("stale .tmp not removed at boot")
	}
	assertAnswersIdentical(t, o, computeColdAnswers(t, k))
}

// TestLoadSnapshotFileQuarantine: a damaged committed snapshot is moved
// aside to .corrupt, its clean prefix still loads, and a missing
// snapshot is fs.ErrNotExist (the normal cold boot).
func TestLoadSnapshotFileQuarantine(t *testing.T) {
	const k = 30
	warm := warmOracle(t, k)
	dir := t.TempDir()
	path := filepath.Join(dir, "oracle.mhsnap")
	if _, err := warm.SaveSnapshotFile(nil, path); err != nil {
		t.Fatal(err)
	}

	// Bit-flip in the middle of the file via the read seam.
	flaky := faultfs.NewFlaky(faultfs.OS)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flaky.FlipByte(info.Size()/2, 0x10)

	o := New(0)
	stats, err := o.LoadSnapshotFile(flaky, path)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Damaged() {
		t.Fatalf("mid-file flip undetected: %+v", stats)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("damaged snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("damaged snapshot left at the committed path")
	}
	assertAnswersIdentical(t, o, computeColdAnswers(t, k))

	if _, err := New(0).LoadSnapshotFile(nil, filepath.Join(dir, "absent")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing snapshot: %v, want fs.ErrNotExist", err)
	}
}

// TestCheckpointer: the background loop writes a loadable snapshot,
// skips no-churn ticks, and Close flushes a final snapshot covering the
// latest state.
func TestCheckpointer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "oracle.mhsnap")
	o := New(0)
	const k = 30
	if _, err := o.SettlementCurveCtx(ctx, 0.25, 0.375, k); err != nil {
		t.Fatal(err)
	}

	cp := NewCheckpointer(o, nil, path, 10*time.Millisecond, t.Logf)
	go cp.Run()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpointer never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Mutate after the periodic save, then Close: the final flush must
	// carry the new point.
	if _, err := o.SettlementCurveCtx(ctx, 0.30, 0.30*0.25, k); err == nil {
		// (second point: α=0.30, ph arbitrary valid)
	} else {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	saves := o.Stats().SnapshotSaves
	if saves < 2 {
		t.Fatalf("expected periodic + final saves, got %d", saves)
	}

	restored := New(0)
	stats, err := restored.LoadSnapshotFile(nil, path)
	if err != nil || stats.Damaged() {
		t.Fatalf("final snapshot unloadable: %+v, %v", stats, err)
	}
	if stats.Entries < 2 {
		t.Fatalf("final snapshot holds %d entries, want both points", stats.Entries)
	}
	if _, err := restored.SettlementCurveCtx(ctx, 0.30, 0.30*0.25, k); err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.Builds != 0 {
		t.Fatalf("final-flush state not warm: %d builds", st.Builds)
	}
}

// TestSnapshotRespectsCapacity: loading a snapshot larger than the cache
// installs only up to capacity (MRU-first) and never evicts.
func TestSnapshotRespectsCapacity(t *testing.T) {
	const k = 20
	warm := warmOracle(t, k) // 8 chains (4 exact + 4 pruned) + depth entry
	data := snapshotBytes(t, warm)

	small := New(2)
	stats, err := small.LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 2 {
		t.Fatalf("installed %d entries into a 2-entry cache", stats.Entries)
	}
	if stats.Skipped == 0 {
		t.Fatal("over-capacity entries not reported as skipped")
	}
	if st := small.Stats(); st.Evictions != 0 {
		t.Fatalf("snapshot load evicted %d entries", st.Evictions)
	}
}
