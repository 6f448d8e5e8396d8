package oracle

import (
	"bytes"
	"context"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multihonest/internal/telemetry"
)

// Cluster fronts a Server with replicated serving: key-addressable GET
// queries are sharded across a fixed peer set by rendezvous hashing on
// the canonical chain key, so each parameter point has exactly one home
// replica and the cluster-wide cache holds each curve once instead of N
// times.
//
// A query that hashes to another replica is forwarded with
// deadline-propagating retries (capped exponential backoff, full
// jitter) and a hedge: if the owner has not answered within
// clusterHedgeAfter, the local oracle starts computing the same answer
// and whichever finishes first is served. Every replica can answer every
// query — forwarding is a cache-locality optimization, never a
// correctness dependency — so peer failure degrades to local compute,
// not errors. A per-peer circuit breaker stops forwarding to a dead
// replica after clusterBreakerThreshold consecutive failures and probes
// it again after clusterBreakerCooldown.
//
// Forwarded requests carry the clusterForwardHeader; a replica that
// receives one always answers locally, so a stale or disagreeing peer
// map can cost one extra hop but never a forwarding loop. Because the
// DP is deterministic, the forwarded, hedged, and fallback paths all
// produce bitwise-identical answers.
type Cluster struct {
	srv   *Server
	local http.Handler
	self  string
	peers []string // includes self; sorted order irrelevant to HRW

	client *http.Client
	// The forwarding policy: NewCluster sets the cluster* constants;
	// tests tighten them on the value they built (hedgeAfter ≤ 0 never
	// hedges).
	hedgeAfter  time.Duration
	fwdTimeout  time.Duration
	retryBase   time.Duration
	retryCap    time.Duration
	maxAttempts int
	logf        func(format string, args ...any)

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	// remote holds one record per other replica. The peer set is fixed
	// by NewCluster, so the map is never written afterwards and is read
	// without a lock; Stats sums it and Instrument exports it per peer.
	remote     map[string]*remotePeer
	fallbacks  atomic.Int64 // owner unreachable; answered locally
	loopServes atomic.Int64 // forwarded requests answered locally
}

// remotePeer is one other replica: its circuit breaker and its
// forwarding counters.
type remotePeer struct {
	brk      breaker
	forwards atomic.Int64 // queries it owns, forwarded to it
	retries  atomic.Int64 // extra forward attempts to it
	hedges   atomic.Int64 // local computes raced against it
}

// ClusterConfig configures a Cluster; the forwarding policy is the
// cluster* constants below.
type ClusterConfig struct {
	// Self is this replica's base URL as it appears in Peers (e.g.
	// "http://127.0.0.1:8080"). Empty or absent from Peers means every
	// query is served locally.
	Self string
	// Peers is the full replica set, self included. Order does not
	// matter; all replicas must agree on the set.
	Peers []string
	// Logf receives breaker transitions and forward failures (default
	// discard).
	Logf func(format string, args ...any)
}

// The forwarding policy every replica runs.
const (
	// clusterForwardTimeout bounds one query's whole forwarding effort,
	// retries included. The request's own deadline, when sooner, wins.
	clusterForwardTimeout = 2 * time.Second
	// clusterHedgeAfter is how long to wait on the owner before racing
	// a local compute.
	clusterHedgeAfter = 100 * time.Millisecond
	// Attempt i ≥ 1 sleeps a uniform random duration in
	// [0, min(clusterRetryCap, clusterRetryBase·2^(i-1))].
	clusterRetryBase = 25 * time.Millisecond
	clusterRetryCap  = 250 * time.Millisecond
	// clusterMaxAttempts bounds forward attempts per query.
	clusterMaxAttempts = 3
	// clusterBreakerThreshold consecutive failures open a peer's
	// breaker; clusterBreakerCooldown later one probe is let through.
	clusterBreakerThreshold = 5
	clusterBreakerCooldown  = 5 * time.Second
	// clusterSeed feeds the jitter stream so chaos runs replay.
	clusterSeed = 1
)

// clusterForwardHeader marks a request as already forwarded once; the
// receiver must answer locally.
const clusterForwardHeader = "X-Multihonest-Forwarded"

// maxForwardBody bounds a forwarded response body (a 4096-point curve
// is ~100KB of JSON; 64MB is far above any legal answer).
const maxForwardBody = 64 << 20

// NewCluster wraps srv's handler in the replication tier.
func NewCluster(srv *Server, cfg ClusterConfig) *Cluster {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Cluster{
		srv:         srv,
		local:       srv.Handler(),
		self:        cfg.Self,
		peers:       append([]string(nil), cfg.Peers...),
		client:      &http.Client{},
		hedgeAfter:  clusterHedgeAfter,
		fwdTimeout:  clusterForwardTimeout,
		retryBase:   clusterRetryBase,
		retryCap:    clusterRetryCap,
		maxAttempts: clusterMaxAttempts,
		logf:        cfg.Logf,
		rng:         rand.New(rand.NewSource(clusterSeed)),
		remote:      make(map[string]*remotePeer),
	}
	for _, p := range c.peers {
		if p != c.self {
			c.remote[p] = &remotePeer{brk: breaker{
				threshold: clusterBreakerThreshold,
				cooldown:  clusterBreakerCooldown,
				logf:      cfg.Logf,
				peer:      p,
			}}
		}
	}
	return c
}

// ClusterStats is the replication tier's counter snapshot.
type ClusterStats struct {
	Self           string            `json:"self"`
	Peers          int               `json:"peers"`
	Forwards       int64             `json:"forwards"`
	ForwardRetries int64             `json:"forward_retries"`
	Hedges         int64             `json:"hedges"`
	LocalFallbacks int64             `json:"local_fallbacks"`
	LoopServes     int64             `json:"loop_serves"`
	BreakerStates  map[string]string `json:"breaker_states,omitempty"`
}

// Stats snapshots the forwarding counters, summed over peers, and the
// breaker states.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{
		Self:           c.self,
		Peers:          len(c.peers),
		LocalFallbacks: c.fallbacks.Load(),
		LoopServes:     c.loopServes.Load(),
	}
	if len(c.remote) > 0 {
		st.BreakerStates = make(map[string]string, len(c.remote))
	}
	for p, rp := range c.remote {
		st.Forwards += rp.forwards.Load()
		st.ForwardRetries += rp.retries.Load()
		st.Hedges += rp.hedges.Load()
		st.BreakerStates[p] = rp.brk.stateName()
	}
	return st
}

// Handler returns the replicated route table: the Server's routes with
// key-addressable GETs intercepted for sharding.
func (c *Cluster) Handler() http.Handler { return c }

func (c *Cluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if len(c.peers) < 2 || c.self == "" {
		c.local.ServeHTTP(w, r) // nothing to shard across
		return
	}
	q, key, ok := routedQuery(r)
	if !ok {
		c.local.ServeHTTP(w, r) // the Server's handler records the queue span
		return
	}
	// Handling starts here for a routed query: its one queue span ends
	// now, before any forward, hedge or local compute.
	tr := traceOf(r)
	if r.Header.Get(clusterForwardHeader) != "" {
		// Already hopped once: answer here regardless of ownership, so a
		// disagreeing peer map cannot loop.
		c.loopServes.Add(1)
		c.srv.serveQuery(tr, w, &q)
		return
	}
	owner := c.owner(key)
	if owner == c.self {
		c.srv.serveQuery(tr, w, &q)
		return
	}
	rp := c.remote[owner]
	rp.forwards.Add(1)
	c.forwardOrHedge(w, r, tr, q, owner, rp)
}

// owner picks the replica for a chain key by highest-random-weight
// (rendezvous) hashing: every replica computes the same argmax with no
// coordination, and removing one peer moves only that peer's keys. Each
// peer's score is the 64-bit FNV-1a hash of "<peer>\x00<αBP>/<fracBP>";
// the key bytes are built on the stack, so routing allocates nothing.
func (c *Cluster) owner(key Key) string {
	var buf [48]byte
	kb := strconv.AppendInt(buf[:0], int64(key.AlphaBP), 10)
	kb = append(kb, '/')
	kb = strconv.AppendInt(kb, int64(key.FracBP), 10)
	var best string
	var bestScore uint64
	for _, p := range c.peers {
		h := fnv1a(fnvOffset64, p)
		h = fnv1a(h, "\x00")
		h = fnv1a(h, kb)
		if best == "" || h > bestScore {
			best, bestScore = p, h
		}
	}
	return best
}

// FNV-1a, 64-bit (the hash/fnv New64a constants).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into the running FNV-1a hash h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// routedQuery parses and canonicalizes a key-addressable query once, for
// both routing and serving, and returns it with its canonical chain key
// (routing reads only the key's parameter point, never its τ).
// Malformed parameters return ok=false and are served locally, where
// they earn their 400 without a network hop.
func routedQuery(r *http.Request) (query, Key, bool) {
	op, ok := strings.CutPrefix(r.URL.Path, "/v1/")
	if r.Method != http.MethodGet || !ok || !slices.Contains(getOps, op) {
		return query{}, Key{}, false
	}
	q, err := parseQuery(op, r.URL.Query())
	if err != nil || q.canonicalize() != nil {
		return query{}, Key{}, false
	}
	return q, q.key, true
}

// bufferedResponse captures a whole response so the forward/hedge race
// can pick a winner before anything touches the real ResponseWriter.
type bufferedResponse struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{status: http.StatusOK, header: make(http.Header)}
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) WriteHeader(status int)      { b.status = status }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// forwardOrHedge races the owner (with retries) against a hedged local
// compute and serves the first complete answer. The whole race is one
// forward span under the request's root — per-attempt children under it,
// the hedged local compute as a hedge_local child — tagged with the peer
// and which side won; hedge and breaker activity flags the trace for the
// flight recorder's tail sampler.
func (c *Cluster) forwardOrHedge(w http.ResponseWriter, r *http.Request, tr *telemetry.Trace, q query, owner string, rp *remotePeer) {
	fwdSpan := tr.StartSpan("forward", tr.Root())
	fwdSpan.SetAttr("peer", owner)
	ctx, cancel := context.WithTimeout(r.Context(), c.fwdTimeout)
	defer cancel()

	// A breaker transition during this request marks the trace as
	// interesting even when the request itself still succeeds.
	trans0 := rp.brk.transitions.Load()
	fwdc := make(chan *bufferedResponse, 1)
	go func() {
		out := c.tryForward(ctx, r, tr, owner, rp, fwdSpan)
		if rp.brk.transitions.Load() != trans0 {
			tr.SetFlag(telemetry.FlagBreaker)
		}
		fwdc <- out
	}()

	var hedgeTimer <-chan time.Time
	if c.hedgeAfter > 0 {
		t := time.NewTimer(c.hedgeAfter)
		defer t.Stop()
		hedgeTimer = t.C
	}
	localc := make(chan *bufferedResponse, 1)
	hedging := false

	for {
		select {
		case br := <-fwdc:
			if br != nil {
				cancel() // drop a still-running hedge's budget
				fwdSpan.SetAttr("winner", "peer")
				fwdSpan.End()
				writeBuffered(w, br)
				return
			}
			// Forwarding exhausted. If a hedge is already computing, its
			// answer is coming; otherwise compute here now.
			c.fallbacks.Add(1)
			if !hedging {
				fwdSpan.SetAttr("winner", "local_fallback")
				fwdSpan.End()
				c.srv.serveQuery(tr, w, &q)
				return
			}
			fwdc = nil
		case <-hedgeTimer:
			hedging = true
			rp.hedges.Add(1)
			tr.SetFlag(telemetry.FlagHedged)
			hedgeTimer = nil
			go func() {
				hsp := tr.StartSpan("hedge_local", fwdSpan)
				br := newBufferedResponse()
				c.srv.serveQuery(tr, br, &q)
				hsp.End() // meaningful even if the trace sealed meanwhile
				localc <- br
			}()
		case br := <-localc:
			tr.SetFlag(telemetry.FlagHedgeWon)
			fwdSpan.SetAttr("winner", "hedge")
			fwdSpan.End()
			writeBuffered(w, br)
			return
		}
	}
}

func writeBuffered(w http.ResponseWriter, b *bufferedResponse) {
	maps.Copy(w.Header(), b.header)
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body.Bytes())
}

// tryForward sends the query to owner with capped-exponential-backoff
// retries. A non-5xx response — including a 400 or 422, which is a
// legitimate answer — is a success. Returns nil when every attempt
// failed or the breaker refused. Each attempt is a forward_attempt span
// under fwdSpan tagged with its outcome, so a retried forward reads as a
// tree, not a mystery gap.
func (c *Cluster) tryForward(ctx context.Context, r *http.Request, tr *telemetry.Trace, owner string, rp *remotePeer, fwdSpan telemetry.SpanRef) *bufferedResponse {
	br := &rp.brk
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		if !br.allow() {
			fwdSpan.SetAttr("breaker", "refused")
			return nil
		}
		if attempt > 0 {
			rp.retries.Add(1)
			if !c.backoff(ctx, attempt) {
				return nil
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+r.URL.RequestURI(), nil)
		if err != nil {
			return nil
		}
		req.Header.Set(clusterForwardHeader, c.self)
		// Propagate the request's trace so the owner's log line carries the
		// same ID as ours.
		if tr != nil && tr.ID != "" {
			req.Header.Set(telemetry.TraceHeader, tr.ID)
		}
		asp := tr.StartSpan("forward_attempt", fwdSpan)
		resp, err := c.client.Do(req)
		if err != nil {
			asp.SetAttr("outcome", "error")
			asp.End()
			br.failure()
			c.logf("cluster: forward %s to %s attempt %d: %v", r.URL.Path, owner, attempt+1, err)
			continue
		}
		if resp.StatusCode >= 500 {
			resp.Body.Close()
			asp.SetAttr("outcome", "status_5xx")
			asp.End()
			br.failure()
			c.logf("cluster: forward %s to %s attempt %d: status %d", r.URL.Path, owner, attempt+1, resp.StatusCode)
			continue
		}
		out := newBufferedResponse()
		out.status = resp.StatusCode
		maps.Copy(out.header, resp.Header)
		_, err = io.Copy(&out.body, io.LimitReader(resp.Body, maxForwardBody))
		resp.Body.Close()
		if err != nil {
			asp.SetAttr("outcome", "body_error")
			asp.End()
			br.failure()
			continue
		}
		asp.SetAttr("outcome", "ok")
		asp.End()
		br.success()
		return out
	}
	return nil
}

// backoff sleeps the jittered delay for the given attempt, honoring the
// deadline; false means the context expired first.
func (c *Cluster) backoff(ctx context.Context, attempt int) bool {
	max := c.retryBase << (attempt - 1)
	if max > c.retryCap {
		max = c.retryCap
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(max) + 1))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// breaker is a per-peer circuit breaker: closed (forwarding), open
// (peer presumed dead; all forwards skipped), half-open (one probe in
// flight after the cooldown).
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	peer      string
	logf      func(string, ...any)

	failures int
	state    int // breakerClosed, breakerHalfOpen or breakerOpen
	openedAt time.Time
	now      func() time.Time // test hook; nil = time.Now

	// transitions counts real state changes; the forwarding path
	// snapshots it around a request to flag traces that watched the
	// breaker move.
	transitions atomic.Int64

	// stateG exports the state for scraping; nil when uninstrumented.
	stateG *telemetry.Gauge
}

// The breaker states, numbered as cluster_breaker_state exports them:
// larger is less available.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

var breakerStateNames = [...]string{"closed", "half-open", "open"}

func (b *breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// allow reports whether a forward attempt may proceed. In the open
// state it lets exactly one probe through per cooldown window.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.clock().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			b.transitions.Add(1)
			b.stateG.Set(breakerHalfOpen)
			b.logf("cluster: breaker for %s half-open, probing", b.peer)
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		b.transitions.Add(1)
		b.logf("cluster: breaker for %s closed", b.peer)
	}
	b.state, b.failures = breakerClosed, 0
	b.stateG.Set(breakerClosed)
}

func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen: // failed probe: back to open, restart the cooldown
		b.state, b.openedAt = breakerOpen, b.clock()
		b.transitions.Add(1)
		b.stateG.Set(breakerOpen)
		b.logf("cluster: breaker for %s re-opened (probe failed)", b.peer)
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state, b.openedAt = breakerOpen, b.clock()
			b.transitions.Add(1)
			b.stateG.Set(breakerOpen)
			b.logf("cluster: breaker for %s opened after %d consecutive failures", b.peer, b.failures)
		}
	}
}

func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStateNames[b.state]
}
