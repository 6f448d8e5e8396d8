package oracle

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multihonest/internal/settlement"
	"multihonest/internal/telemetry"
)

// Server is the HTTP JSON front end of an Oracle. Construct with
// NewServer and mount Handler on an http.Server.
//
// Endpoints:
//
//	GET  /v1/depth?alpha=&ph=|frac=&target=&kmax=   confirmation depth
//	GET  /v1/curve?alpha=&ph=|frac=&k=              per-horizon curve 1..k
//	GET  /v1/failure?alpha=&ph=|frac=&k=            point query at k
//	GET  /v1/cell?alpha=&frac=&k=                   Table-1 cell
//	GET  /v1/bracket?alpha=&ph=|frac=&k=&tau=       certified bracket
//	POST /v1/batch                                  planned multi-query
//	GET  /healthz/live                              liveness probe
//	GET  /healthz/ready                             readiness (503 while warming/draining)
//
// The five GET routes share one handler: parseQuery reads the URL query
// once, in the order listed (the first bad parameter is the 400 error),
// then one oracle call and one encode. The Cluster router runs the same
// parseQuery to pick a query's home replica.
//
// Counters are exported on /metrics by the telemetry registry the oracle
// is instrumented into (see Oracle.Instrument), not by this route table.
type Server struct {
	o       *Oracle
	workers int // batch executor pool size (≤ 0 selects all CPUs)
	ready   atomic.Bool
}

// NewServer wraps an oracle; workers sizes the batch executor pool.
// The server starts ready; callers that warm-boot from a snapshot or
// drain on shutdown gate traffic with SetReady.
func NewServer(o *Oracle, workers int) *Server {
	s := &Server{o: o, workers: workers}
	s.ready.Store(true)
	return s
}

// SetReady flips the readiness probe: false makes /healthz/ready answer
// 503 so load balancers stop routing here (boot not finished, or
// draining), without affecting liveness or in-flight queries.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, op := range getOps {
		mux.HandleFunc("GET /v1/"+op, s.handleQuery)
	}
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	return mux
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

// jsonBuf is a reusable response encoder: an indenting json.Encoder over
// its own buffer. A fresh encoder per response would regrow its indent
// buffer every time; a pooled one keeps it, and its output is the same
// encoder's bytes.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufs = sync.Pool{New: func() any {
	b := new(jsonBuf)
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
}}

// maxPooledJSON bounds the buffers returned to jsonBufs, so one large
// batch or deep-curve response does not stay pinned in the pool.
const maxPooledJSON = 64 << 10

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := jsonBufs.Get().(*jsonBuf)
	b.buf.Reset()
	// Encode appends nothing when marshalling fails, so the client then
	// gets the status and an empty body.
	_ = b.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes()) // the status line is out; nothing to recover
	if b.buf.Cap() <= maxPooledJSON {
		jsonBufs.Put(b)
	}
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
}

// writeJSONTraced is writeJSON with the encode time recorded as a
// serialize span under the request trace's root.
func writeJSONTraced(tr *telemetry.Trace, w http.ResponseWriter, status int, v any) {
	start := time.Now()
	writeJSON(w, status, v)
	tr.AddSpan("serialize", tr.Root(), start, time.Since(start))
}

// traceOf pulls the request trace out of the context (nil — inert — when
// the server runs without the telemetry middleware) and records its
// queue span under the root: the time between the trace's birth at the
// HTTP edge and the handler actually starting on the query, so the tree
// shows routing overhead.
func traceOf(r *http.Request) *telemetry.Trace {
	tr := telemetry.TraceFrom(r.Context())
	tr.AddSpan("queue", tr.Root(), tr.Start(), time.Since(tr.Start()))
	return tr
}

// getOps are the ops of the key-addressable GET routes, /v1/<op>.
var getOps = []string{"depth", "curve", "failure", "cell", "bracket"}

// parseQuery reads the parameters of a GET query to /v1/<op> from one
// parse of its URL query, in the order the route table lists them:
// alpha, then exactly one of ph and frac (ph = frac·(1−α); a Table-1
// cell always reads frac), then the op's own. The error names the first
// missing or malformed parameter.
func parseQuery(op string, v url.Values) (query, error) {
	q := query{op: op}
	r := paramReader{v: v}
	q.alpha = r.float("alpha")
	hasPh, hasFrac := v.Has("ph"), v.Has("frac")
	switch {
	case op == "cell" || hasFrac && !hasPh:
		q.frac = r.float("frac")
		q.ph = q.frac * (1 - q.alpha)
	case hasPh && hasFrac:
		r.fail(errors.New("give ph or frac, not both"))
	case hasPh:
		q.ph = r.float("ph")
	default:
		r.fail(errors.New("missing query parameter: ph or frac"))
	}
	if op == "depth" {
		q.target, q.k = r.float("target"), r.int("kmax")
	} else {
		q.k = r.int("k")
	}
	if op == "bracket" && v.Has("tau") {
		q.tau = r.float("tau")
	}
	return q, r.err
}

// paramReader reads required query parameters for parseQuery. The first
// error sticks and every later read returns the zero value.
type paramReader struct {
	v   url.Values
	err error
}

func (r *paramReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *paramReader) float(name string) float64 {
	return readParam(r, name, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

func (r *paramReader) int(name string) int { return readParam(r, name, strconv.Atoi) }

func readParam[T any](r *paramReader, name string, parse func(string) (T, error)) T {
	var v T
	if r.err != nil {
		return v
	}
	raw := r.v.Get(name)
	if raw == "" {
		r.fail(fmt.Errorf("missing query parameter %q", name))
		return v
	}
	v, err := parse(raw)
	if err != nil {
		r.fail(fmt.Errorf("parameter %q: %v", name, err))
	}
	return v
}

// keyFields annotates answers with the canonical cache coordinates the
// oracle actually computed at, so clients see the basis-point snap.
type keyFields struct {
	Alpha float64 `json:"alpha"`
	Ph    float64 `json:"ph"`
	Frac  float64 `json:"frac"`
}

// handleQuery serves the GET route of every op: one parse of the query,
// then serveQuery.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(r)
	q, err := parseQuery(r.URL.Path[len("/v1/"):], r.URL.Query())
	if err != nil {
		badRequest(w, err)
		return
	}
	s.serveQuery(tr, w, &q)
}

// serveQuery answers an already-parsed GET query: one oracle ask, one
// encode, with the canonical fields read off the key of the entry that
// answered. The cluster tier calls it with the query it parsed to route.
func (s *Server) serveQuery(tr *telemetry.Trace, w http.ResponseWriter, q *query) {
	a, err := s.o.ask(q, tr)
	switch {
	case errors.Is(err, settlement.ErrTargetUnreachable):
		// An unreachable target is a legitimate semantic outcome of a
		// well-formed depth query (slow-decay parameter point), not a
		// client error: 422 with a machine-readable code so clients can
		// branch.
		writeJSON(w, http.StatusUnprocessableEntity, struct {
			httpError
			Code string `json:"code"`
		}{httpError{Error: err.Error()}, "target_unreachable"})
		return
	case err != nil:
		badRequest(w, err)
		return
	}
	kf := keyFields{Alpha: a.key.Alpha(), Ph: a.key.Ph(), Frac: a.key.HonestFraction()}
	var body any
	switch q.op {
	case "depth":
		body = struct {
			keyFields
			Target float64 `json:"target"`
			KMax   int     `json:"kmax"`
			Depth  int     `json:"depth"`
		}{kf, q.target, q.k, a.depth}
	case "curve":
		body = struct {
			keyFields
			K     int       `json:"k"`
			Curve []float64 `json:"curve"`
		}{kf, q.k, a.curve}
	case "failure", "cell":
		body = struct {
			keyFields
			K int     `json:"k"`
			P float64 `json:"p"`
		}{kf, q.k, a.p}
	case "bracket":
		body = struct {
			keyFields
			K     int     `json:"k"`
			Tau   float64 `json:"tau"`
			Lower float64 `json:"lower"`
			Upper float64 `json:"upper"`
		}{kf, q.k, q.tau, a.lower, a.upper}
	}
	writeJSONTraced(tr, w, http.StatusOK, body)
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// MaxBatchQueries bounds one batch request.
const MaxBatchQueries = 4096

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(r)
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		badRequest(w, fmt.Errorf("decoding batch request: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		badRequest(w, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		badRequest(w, fmt.Errorf("batch of %d exceeds limit %d", len(req.Queries), MaxBatchQueries))
		return
	}
	start := time.Now()
	results, plan, err := s.o.BatchCtx(r.Context(), req.Queries, s.workers)
	if err != nil {
		// Batch-level errors are request-shape rejections (e.g. the
		// aggregate curve-point cap); per-query failures land in their
		// result slots instead.
		badRequest(w, err)
		return
	}
	writeJSONTraced(tr, w, http.StatusOK, struct {
		Plan      BatchPlan     `json:"plan"`
		ElapsedMS float64       `json:"elapsed_ms"`
		Results   []BatchResult `json:"results"`
	}{plan, float64(time.Since(start).Microseconds()) / 1e3, results})
}

// handleLive is the liveness probe: the process is up and serving; a
// restart is only warranted when this stops answering.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"alive"})
}

// handleReady is the readiness probe: 200 only when the replica wants
// traffic. Warm boot and drain flip it via SetReady; liveness stays
// green throughout, so orchestrators drain instead of killing.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"not ready"})
		return
	}
	st := s.o.Stats()
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Entries int    `json:"entries"`
	}{"ready", st.Entries})
}
