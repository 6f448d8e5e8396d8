package oracle

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"multihonest/internal/faultfs"
)

// The fault injectors of the persistence and replication tests: flakyFS
// can fail a write after a byte budget (a crash mid-checkpoint), fail
// renames, syncs and creates, and flip bits on reads; faultTransport wraps
// peer HTTP clients and injects request drops, latency spikes and error
// bursts from a seeded stream. Every injected failure is errInjected, so
// tests can tell injected faults from real ones, and every injector is
// deterministic given its configuration: a failing chaos test replays.

// errInjected marks every fault the injectors inject.
var errInjected = errors.New("faultfs: injected fault")

// flakyFS wraps a faultfs.FS with a deterministic fault plan. The zero plan
// injects nothing; each knob arms one failure mode. flakyFS is safe for
// concurrent use.
type flakyFS struct {
	Inner faultfs.FS

	mu sync.Mutex
	// writeBudget is the number of bytes Create'd files may still write
	// before every further write fails (−1 = unlimited). A crashing
	// checkpointer is writeBudget = n: the temp file is left behind,
	// truncated mid-section.
	writeBudget int64
	unlimited   bool
	failRenames int // next n renames fail
	failSyncs   int // next n file/dir syncs fail
	failCreates int // next n creates fail
	// flipOffset/flipMask corrupt reads: the byte at flipOffset of every
	// opened file is XORed with flipMask (mask 0 = disabled).
	flipOffset int64
	flipMask   byte
}

// newFlakyFS returns a flakyFS over inner with no faults armed.
func newFlakyFS(inner faultfs.FS) *flakyFS {
	return &flakyFS{Inner: inner, unlimited: true}
}

// LimitWriteBytes arms the short-write fault: after n more bytes are
// written (across all files created from now on), every write fails with
// errInjected.
func (f *flakyFS) LimitWriteBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget, f.unlimited = n, false
}

// FailRenames arms the next n renames to fail.
func (f *flakyFS) FailRenames(n int) { f.mu.Lock(); f.failRenames = n; f.mu.Unlock() }

// FailSyncs arms the next n syncs (file or directory) to fail.
func (f *flakyFS) FailSyncs(n int) { f.mu.Lock(); f.failSyncs = n; f.mu.Unlock() }

// FailCreates arms the next n creates to fail.
func (f *flakyFS) FailCreates(n int) { f.mu.Lock(); f.failCreates = n; f.mu.Unlock() }

// FlipByte arms read corruption: the byte at offset of every opened file
// is XORed with mask.
func (f *flakyFS) FlipByte(offset int64, mask byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flipOffset, f.flipMask = offset, mask
}

func (f *flakyFS) Create(name string) (faultfs.File, error) {
	f.mu.Lock()
	fail := f.failCreates > 0
	if fail {
		f.failCreates--
	}
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("create %s: %w", name, errInjected)
	}
	inner, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: inner, fs: f}, nil
}

func (f *flakyFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	fail := f.failRenames > 0
	if fail {
		f.failRenames--
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("rename %s: %w", oldpath, errInjected)
	}
	return f.Inner.Rename(oldpath, newpath)
}

func (f *flakyFS) Remove(name string) error { return f.Inner.Remove(name) }

func (f *flakyFS) SyncDir(dir string) error {
	if f.takeSyncFault() {
		return fmt.Errorf("syncdir %s: %w", dir, errInjected)
	}
	return f.Inner.SyncDir(dir)
}

func (f *flakyFS) Open(name string) (io.ReadCloser, error) {
	rc, err := f.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	off, mask := f.flipOffset, f.flipMask
	f.mu.Unlock()
	if mask == 0 {
		return rc, nil
	}
	return &flipReader{rc: rc, off: off, mask: mask}, nil
}

// takeWrite charges n bytes against the write budget, reporting how many
// may be written before the injected failure (n if unlimited).
func (f *flakyFS) takeWrite(n int) (allowed int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unlimited {
		return n, true
	}
	if int64(n) <= f.writeBudget {
		f.writeBudget -= int64(n)
		return n, true
	}
	allowed = int(f.writeBudget)
	f.writeBudget = 0
	return allowed, false
}

func (f *flakyFS) takeSyncFault() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failSyncs > 0 {
		f.failSyncs--
		return true
	}
	return false
}

// flakyFile charges writes against the shared budget; a short write
// writes the allowed prefix for real (the on-disk state a crash leaves)
// and then fails.
type flakyFile struct {
	faultfs.File
	fs *flakyFS
}

func (w *flakyFile) Write(p []byte) (int, error) {
	allowed, ok := w.fs.takeWrite(len(p))
	if ok {
		return w.File.Write(p)
	}
	n := 0
	if allowed > 0 {
		n, _ = w.File.Write(p[:allowed])
	}
	return n, fmt.Errorf("write %s after %d bytes: %w", w.Name(), n, errInjected)
}

func (w *flakyFile) Sync() error {
	if w.fs.takeSyncFault() {
		return fmt.Errorf("sync %s: %w", w.Name(), errInjected)
	}
	return w.File.Sync()
}

// flipReader XORs the byte at off with mask as it streams past.
type flipReader struct {
	rc   io.ReadCloser
	pos  int64
	off  int64
	mask byte
}

func (r *flipReader) Read(p []byte) (int, error) {
	n, err := r.rc.Read(p)
	if n > 0 && r.off >= r.pos && r.off < r.pos+int64(n) {
		p[r.off-r.pos] ^= r.mask
	}
	r.pos += int64(n)
	return n, err
}

func (r *flipReader) Close() error { return r.rc.Close() }

// faultTransport is a fault-injecting http.RoundTripper for peer forwarding:
// it can drop requests (transport error), delay them (latency spike), or
// answer a burst of consecutive requests with errors. Faults draw from a
// seeded stream, so a chaos run replays. faultTransport is safe for
// concurrent use.
type faultTransport struct {
	Inner http.RoundTripper // nil = http.DefaultTransport

	mu        sync.Mutex
	rng       *rand.Rand
	dropProb  float64
	latProb   float64
	latency   time.Duration
	errBurst  int
	injected  int64
	passed    int64
	sleepFunc func(time.Duration) // test hook; nil = time.Sleep
}

// newFaultTransport returns an injector over inner with the given seed and no
// faults armed.
func newFaultTransport(inner http.RoundTripper, seed int64) *faultTransport {
	return &faultTransport{Inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// Drop arms probabilistic request drops.
func (t *faultTransport) Drop(prob float64) { t.mu.Lock(); t.dropProb = prob; t.mu.Unlock() }

// Spike arms probabilistic latency injection of d before the request.
func (t *faultTransport) Spike(prob float64, d time.Duration) {
	t.mu.Lock()
	t.latProb, t.latency = prob, d
	t.mu.Unlock()
}

// FailNext arms the next n requests to fail unconditionally — an error
// burst, the shape of a peer dying and its connections resetting.
func (t *faultTransport) FailNext(n int) { t.mu.Lock(); t.errBurst = n; t.mu.Unlock() }

// Counts reports how many requests were injected with a drop and how
// many passed through.
func (t *faultTransport) Counts() (injected, passed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected, t.passed
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	var delay time.Duration
	if t.latency > 0 && t.rng.Float64() < t.latProb {
		delay = t.latency
	}
	drop := false
	if t.errBurst > 0 {
		t.errBurst--
		drop = true
	} else if t.dropProb > 0 && t.rng.Float64() < t.dropProb {
		drop = true
	}
	if drop {
		t.injected++
	} else {
		t.passed++
	}
	sleep := t.sleepFunc
	t.mu.Unlock()

	if delay > 0 {
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(delay)
	}
	if drop {
		return nil, fmt.Errorf("roundtrip %s: %w", req.URL.Host, errInjected)
	}
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	return inner.RoundTrip(req)
}

// TestFlakyShortWrite: the write budget is honored across writes, the
// allowed prefix lands on disk (the crash-mid-checkpoint state), and the
// failure is errInjected.
func TestFlakyShortWrite(t *testing.T) {
	dir := t.TempDir()
	fs := newFlakyFS(faultfs.OS)
	fs.LimitWriteBytes(10)

	f, err := fs.Create(filepath.Join(dir, "snap.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("0123456")); n != 7 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err := f.Write([]byte("89abcdef"))
	if !errors.Is(err, errInjected) {
		t.Fatalf("second write: err=%v, want errInjected", err)
	}
	if n != 3 {
		t.Fatalf("second write wrote %d bytes, want the 3-byte budget remainder", n)
	}
	f.Close()

	data, err := os.ReadFile(filepath.Join(dir, "snap.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "012345689a" {
		t.Fatalf("on-disk prefix %q, want %q", data, "012345689a")
	}
}

// TestFlakyRenameSyncCreate: armed rename/sync/create faults fire once
// each and then clear.
func TestFlakyRenameSyncCreate(t *testing.T) {
	dir := t.TempDir()
	fs := newFlakyFS(faultfs.OS)

	fs.FailRenames(1)
	if err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, errInjected) {
		t.Fatalf("rename: %v, want errInjected", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatalf("second rename should pass through: %v", err)
	}

	fs.FailSyncs(1)
	if err := fs.SyncDir(dir); !errors.Is(err, errInjected) {
		t.Fatalf("syncdir: %v, want errInjected", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatalf("second syncdir should pass through: %v", err)
	}

	fs.FailCreates(1)
	if _, err := fs.Create(filepath.Join(dir, "c")); !errors.Is(err, errInjected) {
		t.Fatalf("create: %v, want errInjected", err)
	}
	f, err := fs.Create(filepath.Join(dir, "c"))
	if err != nil {
		t.Fatalf("second create should pass through: %v", err)
	}
	f.Close()
}

// TestFlakyFlipByte: exactly the armed byte is corrupted on read,
// whatever chunking the reader uses.
func TestFlakyFlipByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, []byte("hello world"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := newFlakyFS(faultfs.OS)
	fs.FlipByte(6, 0x01)

	rc, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Read byte by byte to exercise the offset tracking across reads.
	var got []byte
	buf := make([]byte, 1)
	for {
		n, err := rc.Read(buf)
		if n > 0 {
			got = append(got, buf[0])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(got) != "hello vorld" {
		t.Fatalf("read %q, want bit 0 of byte 6 flipped (%q)", got, "hello vorld")
	}
}

// TestTransportFaults: error bursts fail exactly n requests, drops are
// deterministic in the seed, and a clean transport passes through.
func TestTransportFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	tr := newFaultTransport(nil, 1)
	client := &http.Client{Transport: tr}

	tr.FailNext(2)
	for i := 0; i < 2; i++ {
		if _, err := client.Get(srv.URL); !errors.Is(err, errInjected) {
			t.Fatalf("burst request %d: %v, want errInjected", i, err)
		}
	}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("post-burst request: %v", err)
	}
	resp.Body.Close()

	// Deterministic drops: two transports with one seed inject the same
	// pattern.
	pattern := func(seed int64) []bool {
		tr := newFaultTransport(nil, seed)
		tr.Drop(0.5)
		var out []bool
		for i := 0; i < 32; i++ {
			resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	dropped := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop pattern diverged at request %d", i)
		}
		if a[i] {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(a) {
		t.Fatalf("drop(0.5) injected %d/%d faults; want a mix", dropped, len(a))
	}
	if inj, passed := newFaultTransport(nil, 1).Counts(); inj != 0 || passed != 0 {
		t.Fatalf("fresh transport counts %d/%d", inj, passed)
	}
}

// TestTransportSpike: armed latency is injected before the request.
func TestTransportSpike(t *testing.T) {
	tr := newFaultTransport(http.DefaultTransport, 3)
	var slept time.Duration
	tr.sleepFunc = func(d time.Duration) { slept += d }
	tr.Spike(1.0, 50*time.Millisecond)

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slept != 50*time.Millisecond {
		t.Fatalf("injected latency %v, want 50ms", slept)
	}
}
