package oracle

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
)

// wireCase is one pinned GET exchange: the request URL and the status,
// Content-Type and body bytes the oracle answers it with.
type wireCase struct {
	URL         string `json:"url"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        string `json:"body"`
}

// wireURLs covers every GET op, both ph/frac spellings, τ present and
// absent, every 400 branch of the parameter parse and of the oracle's
// validation, and the 422 unreachable-target answer.
var wireURLs = []string{
	"/v1/cell?alpha=0.30&frac=0.25&k=60",
	"/v1/curve?alpha=0.30&frac=0.25&k=20",
	"/v1/curve?alpha=0.30&ph=0.175&k=20",
	"/v1/failure?alpha=0.30&frac=0.25&k=60",
	"/v1/failure?alpha=0.30&ph=0.175&k=60",
	"/v1/bracket?alpha=0.30&frac=0.25&k=60&tau=1e-30",
	"/v1/bracket?alpha=0.30&frac=0.25&k=60",
	"/v1/bracket?alpha=0.30&ph=0.175&k=60&tau=1e-12",
	"/v1/depth?alpha=0.25&frac=0.5&target=1e-6&kmax=4096",
	"/v1/depth?alpha=0.25&ph=0.375&target=1e-3&kmax=4096",
	"/v1/depth?alpha=0.45&frac=0.5&target=1e-9&kmax=64",      // 422
	"/v1/cell?frac=0.25&k=60",                                // missing alpha
	"/v1/curve?alpha=abc&frac=0.25&k=9",                      // unparseable alpha
	"/v1/curve?alpha=0.30&k=60",                              // neither ph nor frac
	"/v1/curve?alpha=0.30&ph=0.1&frac=0.5&k=9",               // both ph and frac
	"/v1/failure?alpha=0.30&ph=&k=9",                         // empty ph
	"/v1/failure?alpha=0.30&frac=x&k=9",                      // unparseable frac
	"/v1/failure?alpha=0.30&frac=0.25",                       // missing k
	"/v1/curve?alpha=0.30&frac=0.25&k=zero",                  // unparseable k
	"/v1/curve?alpha=0.30&frac=0.25&k=1000000000",            // k beyond service bound
	"/v1/bracket?alpha=0.30&frac=0.25&k=0",                   // k below 1
	"/v1/failure?alpha=0.80&ph=0.1&k=60",                     // alpha out of domain
	"/v1/curve?alpha=0.25&ph=0.9&k=10",                       // ph past the honest ceiling
	"/v1/cell?alpha=0.30&ph=0.175&k=60",                      // cell needs frac
	"/v1/cell?alpha=0.30&frac=1.5&k=60",                      // honest fraction out of range
	"/v1/bracket?alpha=0.30&frac=0.25&k=60&tau=abc",          // unparseable tau
	"/v1/bracket?alpha=0.30&frac=0.25&k=60&tau=-1",           // negative tau
	"/v1/depth?alpha=0.25&frac=0.5&kmax=10",                  // missing target
	"/v1/depth?alpha=0.25&frac=0.5&target=2&kmax=10",         // target out of range
	"/v1/depth?alpha=0.25&frac=0.5&target=1e-6&kmax=x",       // unparseable kmax
	"/v1/depth?alpha=0.25&frac=0.5&target=1e-6&kmax=2000000", // kmax beyond bound
	"/v1/depth?alpha=0.25&target=x&kmax=y",                   // first error wins
}

const wireGolden = "testdata/get_wire.json"

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

func loadWireGolden(t *testing.T) []wireCase {
	t.Helper()
	raw, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	var cases []wireCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(wireURLs) {
		t.Fatalf("%s holds %d cases, wireURLs %d", wireGolden, len(cases), len(wireURLs))
	}
	for i, c := range cases {
		if c.URL != wireURLs[i] {
			t.Fatalf("%s case %d is %s, wireURLs says %s", wireGolden, i, c.URL, wireURLs[i])
		}
	}
	return cases
}

func checkWire(t *testing.T, via string, want wireCase, status int, contentType, body string) {
	t.Helper()
	if status != want.Status || contentType != want.ContentType || body != want.Body {
		t.Errorf("%s %s: got %d %q %q\nwant %d %q %q",
			via, want.URL, status, contentType, body, want.Status, want.ContentType, want.Body)
	}
}

// TestGETWireBytes replays the pinned URL list through a single Server
// and through both replicas of a two-replica Cluster (so half the chain
// keys are forwarded) and requires the parent's exact status,
// Content-Type and body bytes from every path.
func TestGETWireBytes(t *testing.T) {
	cases := loadWireGolden(t)

	h := NewServer(New(0), 1).Handler()
	for _, c := range cases {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, c.URL, nil))
		checkWire(t, "server", c, rr.Code, rr.Header().Get("Content-Type"), rr.Body.String())
	}

	rs := newReplicaSet(t, 2, nil)
	for replica := range rs.urls {
		for _, c := range cases {
			resp, err := http.Get(rs.urls[replica] + c.URL)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			checkWire(t, "cluster replica "+rs.urls[replica], c, resp.StatusCode, resp.Header.Get("Content-Type"), string(body))
		}
	}
}

// TestGETWarmAllocs caps the allocation count of a warm GET of each op,
// answered from a resident curve, httptest recorder and request included.
// The caps are the counts measured with one parse of the URL query per
// request and a pooled response encoder (go1.24, linux/amd64; 29/29/31/
// 30/33 with a fresh encoder per response); a rise means the query path
// grew a per-request allocation.
func TestGETWarmAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop items at random, so net/http and encoding/json allocate more")
	}
	h := NewServer(New(0), 1).Handler()
	for _, c := range []struct {
		url  string
		want float64
	}{
		{"/v1/cell?alpha=0.30&frac=0.25&k=60", 24},
		{"/v1/failure?alpha=0.30&frac=0.25&k=60", 24},
		{"/v1/bracket?alpha=0.30&frac=0.25&k=60&tau=1e-30", 25},
		{"/v1/depth?alpha=0.25&frac=0.5&target=1e-6&kmax=4096", 25},
		{"/v1/curve?alpha=0.30&frac=0.25&k=20", 25},
	} {
		serve := func() {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, c.url, nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("%s: status %d", c.url, rr.Code)
			}
		}
		serve() // warm the chain
		if got := testing.AllocsPerRun(200, serve); got > c.want {
			t.Errorf("%s: %v allocs per warm GET, want ≤ %v", c.url, got, c.want)
		}
	}
}

// discardWriter is a ResponseWriter that allocates nothing of its own.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestGETWarmBytes caps the bytes a warm 200-point curve GET allocates in
// the handler (no recorder). A fresh indenting encoder per response
// regrew its indent buffer every time: 20.2 KB per request (go1.24,
// linux/amd64). The pooled encoder measured 2.34 KB; the cap leaves 3%
// for sync.Pool refills after a GC.
func TestGETWarmBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	h := NewServer(New(0), 1).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/curve?alpha=0.30&frac=0.25&k=200", nil)
	w := discardWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	serve() // warm the chain and the encoder pool
	const runs = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&m1)
	if got := float64(m1.TotalAlloc-m0.TotalAlloc) / runs; got > 2400 {
		t.Errorf("warm curve GET (k = 200): %.0f bytes allocated per request, want ≤ 2400", got)
	}
}
