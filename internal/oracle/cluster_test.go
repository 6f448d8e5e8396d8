package oracle

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multihonest/internal/faultfs"
	"multihonest/internal/telemetry"
)

// replicaSet spins up n replicas, each a full Oracle+Server+Cluster over
// an httptest server, all agreeing on the peer list.
type replicaSet struct {
	oracles  []*Oracle
	clusters []*Cluster
	servers  []*httptest.Server
	urls     []string
}

// newReplicaSet builds the set. Each replica retries after 1–4ms and
// never hedges; configure then tunes each replica's policy in place.
func newReplicaSet(t *testing.T, n int, configure func(i int, c *Cluster)) *replicaSet {
	t.Helper()
	rs := &replicaSet{}

	// The peer URLs must exist before any cluster is constructed, so each
	// server starts on a handler that indirects through a swappable slot.
	type slot struct {
		mu sync.RWMutex
		h  http.Handler
	}
	slots := make([]*slot, n)
	for i := range slots {
		s := &slot{}
		slots[i] = s
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.mu.RLock()
			h := s.h
			s.mu.RUnlock()
			if h == nil {
				http.Error(w, "booting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		rs.servers = append(rs.servers, srv)
		rs.urls = append(rs.urls, srv.URL)
	}
	t.Cleanup(func() {
		for _, srv := range rs.servers {
			srv.Close()
		}
	})

	for i := 0; i < n; i++ {
		o := New(0)
		c := NewCluster(NewServer(o, 1), ClusterConfig{Self: rs.urls[i], Peers: rs.urls, Logf: t.Logf})
		c.retryBase, c.retryCap = time.Millisecond, 4*time.Millisecond
		c.hedgeAfter = 0 // tests opt in explicitly
		if configure != nil {
			configure(i, c)
		}
		rs.oracles = append(rs.oracles, o)
		rs.clusters = append(rs.clusters, c)
		slots[i].mu.Lock()
		slots[i].h = c.Handler()
		slots[i].mu.Unlock()
	}
	return rs
}

func (rs *replicaSet) get(t *testing.T, replica int, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(rs.urls[replica] + path)
	if err != nil {
		t.Fatalf("GET %s via replica %d: %v", path, replica, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func testQueries(k int) []string {
	var qs []string
	for _, pt := range testPoints {
		qs = append(qs, fmt.Sprintf("/v1/curve?alpha=%g&frac=%g&k=%d", pt.alpha, pt.frac, k))
	}
	return qs
}

// TestClusterSharding: every replica answers every query bitwise
// identically, each chain key is built on exactly one replica, and
// cross-replica queries actually forward.
func TestClusterSharding(t *testing.T) {
	rs := newReplicaSet(t, 3, nil)

	// Reference answers from a standalone single-node server.
	ref := httptest.NewServer(NewServer(New(0), 1).Handler())
	defer ref.Close()

	const k = 60
	for _, q := range testQueries(k) {
		want := ""
		if resp, err := http.Get(ref.URL + q); err != nil {
			t.Fatal(err)
		} else {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want = string(b)
		}
		for replica := range rs.urls {
			status, body := rs.get(t, replica, q)
			if status != http.StatusOK {
				t.Fatalf("replica %d %s: status %d: %s", replica, q, status, body)
			}
			if body != want {
				t.Fatalf("replica %d %s: answer differs from reference", replica, q)
			}
		}
	}

	// Sharding: 4 distinct chain keys, 4 total builds across the cluster
	// (each key cold-built once, at its owner, never at a forwarder).
	builds := int64(0)
	for _, o := range rs.oracles {
		builds += o.Stats().Builds
	}
	if builds != int64(len(testPoints)) {
		t.Fatalf("cluster ran %d builds for %d chain keys; sharding leaked", builds, len(testPoints))
	}
	forwards := int64(0)
	for _, c := range rs.clusters {
		forwards += c.Stats().Forwards
	}
	if forwards == 0 {
		t.Fatal("no query was ever forwarded; sharding inert")
	}
}

// TestClusterOwnerRendezvous: the replicas agree on every key's owner,
// and ownership actually spreads across peers.
func TestClusterOwnerRendezvous(t *testing.T) {
	rs := newReplicaSet(t, 3, nil)
	owners := make(map[string]bool)
	for bp := 0; bp < 5000; bp += 50 {
		key := Key{AlphaBP: bp, FracBP: 10000 - bp}
		owner := rs.clusters[0].owner(key)
		for i, c := range rs.clusters {
			if got := c.owner(key); got != owner {
				t.Fatalf("replica %d maps %v to %s; replica 0 to %s", i, key, got, owner)
			}
		}
		owners[owner] = true
	}
	if len(owners) != len(rs.urls) {
		t.Fatalf("HRW used %d of %d replicas over 100 keys", len(owners), len(rs.urls))
	}
}

// TestClusterOwnerPinned pins rendezvous ownership for a fixed peer set:
// the score hashes "<peer>\x00<αBP>/<fracBP>", so a change to how the key
// bytes are built would silently move keys between replicas of a mixed-
// version cluster. The owners were recorded from the fmt.Sprintf and
// hash/fnv implementation this one replaced.
func TestClusterOwnerPinned(t *testing.T) {
	peers := []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"}
	c := NewCluster(NewServer(New(1), 1), ClusterConfig{Self: peers[0], Peers: peers})
	for _, tc := range []struct {
		key  Key
		want string
	}{
		{Key{AlphaBP: 3000, FracBP: 2500}, "http://10.0.0.3:8080"},
		{Key{AlphaBP: 2500, FracBP: 5000}, "http://10.0.0.2:8080"},
		{Key{AlphaBP: 1000, FracBP: 0}, "http://10.0.0.3:8080"},
		{Key{AlphaBP: 4999, FracBP: 10000}, "http://10.0.0.1:8080"},
		{Key{AlphaBP: 1, FracBP: 1}, "http://10.0.0.1:8080"},
		{Key{AlphaBP: 2000, FracBP: 7500}, "http://10.0.0.1:8080"},
		{Key{AlphaBP: 3300, FracBP: 3333}, "http://10.0.0.1:8080"},
		{Key{AlphaBP: 4500, FracBP: 9999}, "http://10.0.0.2:8080"},
		{Key{AlphaBP: 100, FracBP: 5000}, "http://10.0.0.2:8080"},
		{Key{AlphaBP: 2750, FracBP: 6000}, "http://10.0.0.3:8080"},
	} {
		if got := c.owner(tc.key); got != tc.want {
			t.Errorf("owner(%d/%d) = %s, want %s", tc.key.AlphaBP, tc.key.FracBP, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.owner(Key{AlphaBP: 3000, FracBP: 2500}) }); n != 0 {
		t.Errorf("owner: %v allocs per call, want 0", n)
	}
}

// TestPeerlessClusterAllocs: a Cluster with nothing to shard across adds
// no allocation to a warm GET over the bare Server's handler (it used to
// parse the query and format a routing key it never used).
func TestPeerlessClusterAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop items at random, so allocation counts rise")
	}
	srv := NewServer(New(0), 1)
	const url = "/v1/cell?alpha=0.30&frac=0.25&k=60"
	allocs := func(h http.Handler) float64 {
		serve := func() {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d", rr.Code)
			}
		}
		serve()
		return testing.AllocsPerRun(200, serve)
	}
	bare := allocs(srv.Handler())
	peerless := allocs(NewCluster(srv, ClusterConfig{}).Handler())
	if peerless > bare {
		t.Errorf("warm /v1/cell: %v allocs through a peerless Cluster, %v through the bare Server", peerless, bare)
	}
}

// TestSelfOwnedClusterAllocs: on a two-peer Cluster, a warm GET whose
// key this replica owns allocates no more than through the bare Server's
// handler — the parse that routed it is the parse that serves it. (Routed
// back through the Server's handler, it parsed twice: 29 allocs against
// the bare Server's 24 on go1.24, linux/amd64.) The peers are never
// dialled: a self-owned query does not leave the process.
func TestSelfOwnedClusterAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop items at random, so allocation counts rise")
	}
	srv := NewServer(New(0), 1)
	const url = "/v1/cell?alpha=0.30&frac=0.25&k=60"
	peers := []string{"http://replica-a.invalid", "http://replica-b.invalid"}
	_, key, ok := routedQuery(httptest.NewRequest(http.MethodGet, url, nil))
	if !ok {
		t.Fatal("test query is not shardable")
	}
	self := NewCluster(srv, ClusterConfig{Self: peers[0], Peers: peers}).owner(key)
	c := NewCluster(srv, ClusterConfig{Self: self, Peers: peers})
	allocs := func(h http.Handler) float64 {
		serve := func() {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d", rr.Code)
			}
		}
		serve()
		return testing.AllocsPerRun(200, serve)
	}
	bare := allocs(srv.Handler())
	owned := allocs(c.Handler())
	if st := c.Stats(); st.Forwards != 0 {
		t.Fatalf("self-owned query forwarded %d times", st.Forwards)
	}
	if owned > bare {
		t.Errorf("warm self-owned /v1/cell: %v allocs through a two-peer Cluster, %v through the bare Server", owned, bare)
	}
}

// TestClusterFailover: with the owner dead, any replica still answers —
// locally, byte-identically — inside the forwarding deadline.
func TestClusterFailover(t *testing.T) {
	rs := newReplicaSet(t, 2, func(i int, c *Cluster) {
		c.fwdTimeout = time.Second
		c.maxAttempts = 2
		for _, rp := range c.remote {
			rp.brk.threshold = 2
		}
	})

	// Find a query one replica owns so asking the other must forward.
	// HRW ownership depends on the replicas' random ports, so either
	// replica may own any given point; pick the victim to match instead
	// of fixing it up front (4 points can all land on one replica).
	const k = 40
	var q string
	asker, victim := 0, 1
	for _, cand := range testQueries(k) {
		r, _ := http.NewRequest(http.MethodGet, cand, nil)
		if _, key, ok := routedQuery(r); ok {
			q = cand
			if rs.clusters[0].owner(key) == rs.urls[0] {
				asker, victim = 1, 0
			}
			break
		}
	}
	if q == "" {
		t.Fatal("no shardable test query")
	}

	// Reference answer while both replicas are up.
	_, want := rs.get(t, asker, q)

	// Kill the owner. Queries via the asker must still answer, identically.
	rs.servers[victim].Close()
	for i := 0; i < 4; i++ {
		start := time.Now()
		status, body := rs.get(t, asker, q)
		if status != http.StatusOK {
			t.Fatalf("query %d after owner death: status %d", i, status)
		}
		if body != want {
			t.Fatalf("query %d after owner death: answer differs", i)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("query %d took %v; deadline not honored", i, el)
		}
	}
	st := rs.clusters[asker].Stats()
	if st.LocalFallbacks == 0 {
		t.Fatalf("owner dead but no local fallbacks recorded: %+v", st)
	}
	// The breaker opened after the threshold, so later queries skipped the
	// dead peer instead of burning retries.
	if st.BreakerStates[rs.urls[victim]] != "open" {
		t.Fatalf("breaker for dead peer is %q, want open", st.BreakerStates[rs.urls[victim]])
	}
}

// TestClusterShippedPolicy runs a cluster on the forwarding policy
// NewCluster ships, with no overrides, against a peer whose transport
// fails every request: the breaker opens after exactly
// clusterBreakerThreshold transport attempts, nothing reaches the peer
// again until the cooldown has passed on the breaker's clock, and every
// query still answers with the bytes of a cold local replay.
func TestClusterShippedPolicy(t *testing.T) {
	const peer = "http://peer:2"
	var calls atomic.Int64
	c := NewCluster(NewServer(New(0), 1), ClusterConfig{
		Self:  "http://self:1",
		Peers: []string{"http://self:1", peer},
		Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
			calls.Add(1)
			return nil, errors.New("peer down")
		}),
	})
	var clock atomic.Int64 // nanoseconds on the breaker's clock
	brk := &c.remote[peer].brk
	brk.now = func() time.Time { return time.Unix(0, clock.Load()) }
	cold := NewServer(New(0), 1).Handler()

	// query sends the next peer-owned point and checks the answer.
	bp := 1000
	query := func() {
		t.Helper()
		for ; bp < 5000; bp++ {
			url := fmt.Sprintf("/v1/cell?alpha=%g&frac=0.5&k=20", float64(bp)/1e4)
			if _, key, ok := routedQuery(httptest.NewRequest(http.MethodGet, url, nil)); !ok || c.owner(key) != peer {
				continue
			}
			bp++
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			c.ServeHTTP(got, httptest.NewRequest(http.MethodGet, url, nil))
			cold.ServeHTTP(want, httptest.NewRequest(http.MethodGet, url, nil))
			if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
				t.Fatalf("%s: status %d, body %q; cold replay %q", url, got.Code, got.Body, want.Body)
			}
			return
		}
		t.Fatal("no more queries owned by the peer")
	}

	for brk.stateName() != "open" {
		if calls.Load() > clusterBreakerThreshold {
			t.Fatalf("%d transport attempts and the breaker is still %s", calls.Load(), brk.stateName())
		}
		query()
	}
	if n := calls.Load(); n != clusterBreakerThreshold {
		t.Fatalf("breaker opened after %d transport attempts, want %d", n, clusterBreakerThreshold)
	}
	for i := 0; i < 3; i++ {
		query()
	}
	clock.Store(int64(clusterBreakerCooldown - time.Nanosecond))
	query()
	if n := calls.Load(); n != clusterBreakerThreshold {
		t.Fatalf("%d transport attempts before the cooldown passed, want %d", n, clusterBreakerThreshold)
	}
	clock.Store(int64(clusterBreakerCooldown))
	query()
	if n := calls.Load(); n != clusterBreakerThreshold+1 {
		t.Fatalf("%d transport attempts after the cooldown, want one probe past %d", n, clusterBreakerThreshold)
	}
	if st := brk.stateName(); st != "open" {
		t.Fatalf("breaker after a failed probe is %s, want open", st)
	}
}

// queryOwnedBy returns a curve query whose chain key the given replica
// owns, from the asker's view. HRW ownership hashes the replicas'
// random httptest ports, so any FIXED candidate list can land entirely
// on one side (4 points → 1-in-16 per run); sweeping alpha in basis
// points makes a miss astronomically unlikely, and the t.Fatal guards
// the theoretical remainder loudly instead of degrading the query to
// "" (a 404 on the mux root).
func queryOwnedBy(t *testing.T, rs *replicaSet, asker, owner, k int) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		q := fmt.Sprintf("/v1/curve?alpha=%g&frac=0.5&k=%d", 0.05+float64(i)*0.001, k)
		r, _ := http.NewRequest(http.MethodGet, q, nil)
		if _, key, ok := routedQuery(r); ok && rs.clusters[asker].owner(key) == rs.urls[owner] {
			return q
		}
	}
	t.Fatal("no candidate query owned by the target replica")
	return ""
}

// TestClusterRetry: transient transport faults are retried and the
// query still lands on the owner.
func TestClusterRetry(t *testing.T) {
	var tr *faultfs.Transport
	rs := newReplicaSet(t, 2, func(i int, c *Cluster) {
		if i == 0 {
			tr = faultfs.NewTransport(nil, 42)
			c.client.Transport = tr
		}
	})

	q := queryOwnedBy(t, rs, 0, 1, 40)
	_, want := rs.get(t, 1, q) // owner's direct answer

	tr.FailNext(2) // burst: first two forward attempts die in transit
	status, body := rs.get(t, 0, q)
	if status != http.StatusOK || body != want {
		t.Fatalf("retried forward: status %d, match=%v", status, body == want)
	}
	st := rs.clusters[0].Stats()
	if st.ForwardRetries < 2 {
		t.Fatalf("recorded %d retries, want ≥2", st.ForwardRetries)
	}
	if st.LocalFallbacks != 0 {
		t.Fatalf("transient faults should not fall back locally: %+v", st)
	}
}

// TestClusterHedge: a slow owner is raced by a hedged local compute and
// the caller gets the (identical) answer fast.
func TestClusterHedge(t *testing.T) {
	stall := make(chan struct{})
	rs := newReplicaSet(t, 2, func(i int, c *Cluster) {
		if i == 0 {
			c.hedgeAfter = 5 * time.Millisecond
			c.fwdTimeout = 30 * time.Second
			// The "slow peer": every forwarded byte waits on stall.
			c.client.Transport = stallTransport{stall: stall}
		}
	})
	defer close(stall)

	q := queryOwnedBy(t, rs, 0, 1, 40)
	ref := httptest.NewServer(NewServer(New(0), 1).Handler())
	defer ref.Close()
	resp, err := http.Get(ref.URL + q)
	if err != nil {
		t.Fatal(err)
	}
	wantB, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	start := time.Now()
	status, body := rs.get(t, 0, q)
	if status != http.StatusOK {
		t.Fatalf("hedged query: status %d", status)
	}
	if body != string(wantB) {
		t.Fatal("hedged local answer differs from reference")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("hedge did not rescue the query: took %v", el)
	}
	if st := rs.clusters[0].Stats(); st.Hedges == 0 {
		t.Fatalf("no hedge recorded: %+v", st)
	}
}

// stallTransport blocks every request until its channel closes.
type stallTransport struct{ stall chan struct{} }

func (s stallTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	select {
	case <-s.stall:
	case <-req.Context().Done():
	}
	return nil, fmt.Errorf("stalled: %w", req.Context().Err())
}

// TestClusterLoopPrevention: a request already carrying the forwarded
// header is answered locally even by a non-owner, so peer-map skew
// costs a hop, never a loop.
func TestClusterLoopPrevention(t *testing.T) {
	rs := newReplicaSet(t, 2, nil)
	const k = 40
	for _, q := range testQueries(k) {
		req, err := http.NewRequest(http.MethodGet, rs.urls[0]+q, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(clusterForwardHeader, "test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded-marked %s: status %d", q, resp.StatusCode)
		}
	}
	st := rs.clusters[0].Stats()
	if st.LoopServes != int64(len(testPoints)) {
		t.Fatalf("loop-marked requests served %d, want %d", st.LoopServes, len(testPoints))
	}
	if st.Forwards != 0 {
		t.Fatalf("loop-marked request was re-forwarded: %+v", st)
	}
}

// TestClusterQueueSpanOnce: a hedged query and a local-fallback query
// each record exactly one queue span, and it ends before the forward
// span starts, so the trace's phases add up to its elapsed time instead
// of counting the forward's wait a second time as queueing.
func TestClusterQueueSpanOnce(t *testing.T) {
	const peer = "http://peer:2"
	c := failingCluster(t, New(0))
	for _, tc := range []struct {
		name string
		k    int // failingCluster fails k = 20 at once and stalls the rest
		flag telemetry.Flag
	}{
		{"fallback", 20, 0},
		{"hedged", 40, telemetry.FlagHedged},
	} {
		url := ""
		for bp := 1000; bp < 5000 && url == ""; bp++ {
			u := fmt.Sprintf("/v1/cell?alpha=%g&frac=0.5&k=%d", float64(bp)/1e4, tc.k)
			if _, key, ok := routedQuery(httptest.NewRequest(http.MethodGet, u, nil)); ok && c.owner(key) == peer {
				url = u
			}
		}
		if url == "" {
			t.Fatal("no query owned by the peer")
		}
		fallbacks := c.Stats().LocalFallbacks
		tr := telemetry.NewTrace("")
		root := tr.StartSpan("request", telemetry.SpanRef{})
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rr := httptest.NewRecorder()
		c.ServeHTTP(rr, req.WithContext(telemetry.WithTrace(req.Context(), tr)))
		root.End()
		tr.Finish()
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, rr.Code)
		}
		if tc.flag != 0 && !tr.HasFlag(tc.flag) {
			t.Fatalf("%s: query was not hedged", tc.name)
		}
		if tc.flag == 0 && c.Stats().LocalFallbacks == fallbacks {
			t.Fatalf("%s: query did not fall back locally", tc.name)
		}
		var queue, forward []telemetry.SpanSnapshot
		for _, sp := range tr.Snapshot().Spans {
			switch sp.Name {
			case "queue":
				queue = append(queue, sp)
			case "forward":
				forward = append(forward, sp)
			}
		}
		if len(queue) != 1 || len(forward) != 1 {
			t.Fatalf("%s: %d queue and %d forward spans, want 1 of each", tc.name, len(queue), len(forward))
		}
		if end := queue[0].StartNS + queue[0].DurNS; end > forward[0].StartNS {
			t.Errorf("%s: queue span ends at %v, after the forward starts at %v",
				tc.name, time.Duration(end), time.Duration(forward[0].StartNS))
		}
	}
}

// TestBreakerTransitions drives the circuit breaker through its state
// machine with a fake clock.
func TestBreakerTransitions(t *testing.T) {
	clock := time.Unix(0, 0)
	b := &breaker{
		threshold: 3,
		cooldown:  time.Minute,
		peer:      "p",
		logf:      t.Logf,
		now:       func() time.Time { return clock },
	}
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.failure()
	}
	if b.stateName() != "open" {
		t.Fatalf("after threshold failures: %s, want open", b.stateName())
	}
	if b.allow() {
		t.Fatal("open breaker allowed a forward before cooldown")
	}

	clock = clock.Add(time.Minute)
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.stateName() != "half-open" {
		t.Fatalf("probing breaker is %s, want half-open", b.stateName())
	}
	if b.allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	b.failure()
	if b.stateName() != "open" || b.allow() {
		t.Fatal("failed probe must re-open and restart the cooldown")
	}

	clock = clock.Add(time.Minute)
	if !b.allow() {
		t.Fatal("second probe refused")
	}
	b.success()
	if b.stateName() != "closed" || !b.allow() {
		t.Fatal("successful probe must close the breaker")
	}
}

// TestServerReadiness: liveness is unconditional, readiness follows
// SetReady.
func TestServerReadiness(t *testing.T) {
	s := NewServer(New(0), 1)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz/live", http.StatusOK)
	check("/healthz/ready", http.StatusOK)
	s.SetReady(false)
	check("/healthz/live", http.StatusOK)
	check("/healthz/ready", http.StatusServiceUnavailable)
	s.SetReady(true)
	check("/healthz/ready", http.StatusOK)
}
