package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"multihonest/internal/lattice"
	"multihonest/internal/oracle"
	"multihonest/internal/settlement"
)

func oracleInvariants() []Invariant {
	return []Invariant{
		{
			Name: "oracle-hot-equals-cold",
			Statement: "Oracle answers are byte-identical between a cache hit, " +
				"a cold build, and the underlying settlement computer invoked " +
				"directly at the canonicalized parameter point.",
			Anchor: "oracle.Oracle.ask / oracle.Canonicalize (internal/oracle/oracle.go)",
			Check:  checkOracleHotEqualsCold,
		},
		{
			Name: "snapshot-roundtrip-identity",
			Statement: "Encoding an oracle's cache to the checksummed snapshot " +
				"format and decoding it into a fresh oracle reproduces every " +
				"curve value and bracket end bitwise, with zero DP rebuilds.",
			Anchor: "oracle.Oracle.WriteSnapshot / LoadSnapshot (internal/oracle/snapshot.go)",
			Check:  checkSnapshotRoundtripIdentity,
		},
		{
			Name: "readout-residency-identity",
			Statement: "A curve whose lattice engine is released between " +
				"extensions — at random points, within one ladder capacity " +
				"and across capacity crossings — serves readouts bitwise " +
				"equal to a curve that never released it, for exact, " +
				"pruned (τ > 0) and upper-bound chains, and so does the " +
				"oracle, which releases after every extension.",
			Anchor: "lattice.Curve.Release (internal/lattice/curve.go) + oracle.Oracle.extendLocked / depthLocked (internal/oracle/oracle.go)",
			Check:  checkReadoutResidencyIdentity,
		},
		{
			Name: "rung-sparse-identity",
			Statement: "Any interleaving of single-horizon publishes and " +
				"queries, dense extensions and curve queries, engine " +
				"releases, snapshot round trips and batches, over exact " +
				"and pruned chains at horizons across the 16…256 rungs, " +
				"serves every value bitwise equal to a dense, " +
				"never-released build.",
			Anchor: "lattice.Curve.Publish / Extend (internal/lattice/curve.go) + oracle.Oracle.extendLocked (internal/oracle/oracle.go)",
			Check:  checkRungSparseIdentity,
		},
		{
			Name: "failover-answer-identity",
			Statement: "A replica answering a query whose shard owner is dead — " +
				"retries exhausted, degraded local-compute fallback — returns " +
				"bytes identical to a fresh cold compute at the same point.",
			Anchor: "oracle.Cluster.forwardOrHedge (internal/oracle/cluster.go) + lattice.Curve's canonical capacity ladder",
			Check:  checkFailoverAnswerIdentity,
		},
		{
			Name: "get-batch-answer-identity",
			Statement: "Random mixes of valid and invalid queries over every " +
				"op, τ included, answer identically through the …Ctx methods, " +
				"a GET and a batch slot — equal bits or equal error text — at " +
				"1 and 4 batch workers, on cold and warm caches.",
			Anchor: "oracle.Oracle.ask / answerLocked (internal/oracle/oracle.go) + oracle.BatchQuery.query (internal/oracle/batch.go)",
			Check:  checkGetBatchAnswerIdentity,
		},
	}
}

func checkOracleHotEqualsCold(t *testing.T, r *rand.Rand) {
	ctx := context.Background()
	for trial := 0; trial < 3; trial++ {
		p := randParams(t, r)
		alpha, ph := p.PA(), p.Ph
		k := 30 + r.Intn(30)

		o := oracle.New(4)
		cold, err := o.SettlementCurveCtx(ctx, alpha, ph, k)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := o.SettlementCurveCtx(ctx, alpha, ph, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(cold, hot) {
			t.Fatalf("trial %d: hot curve differs from cold curve", trial)
		}

		// The direct path: the same canonicalized parameter point handed
		// straight to the settlement computer the oracle builds from.
		_, cp, err := oracle.Canonicalize(alpha, ph, 0)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := settlement.New(cp).ViolationCurve(k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(cold, direct) {
			t.Fatalf("trial %d: oracle curve differs from direct settlement computer", trial)
		}

		pf, err := o.SettlementFailureCtx(ctx, alpha, ph, k)
		if err != nil {
			t.Fatal(err)
		}
		if pf != direct[k-1] {
			t.Fatalf("trial %d: point failure %v != curve tail %v", trial, pf, direct[k-1])
		}

		st := o.Stats()
		if st.Misses < 1 || st.Hits < 1 {
			t.Fatalf("trial %d: stats %+v show no miss-then-hit pattern", trial, st)
		}
	}
}

func checkSnapshotRoundtripIdentity(t *testing.T, r *rand.Rand) {
	ctx := context.Background()
	for trial := 0; trial < 3; trial++ {
		p := randParams(t, r)
		alpha, ph := p.PA(), p.Ph
		k := 20 + r.Intn(40)

		live := oracle.New(8)
		curve, err := live.SettlementCurveCtx(ctx, alpha, ph, k)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := live.SettlementBracketCtx(ctx, alpha, ph, k, 1e-30)
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if n, err := live.WriteSnapshot(&buf); err != nil || n == 0 {
			t.Fatalf("trial %d: snapshot write: n=%d err=%v", trial, n, err)
		}
		restored := oracle.New(8)
		stats, err := restored.LoadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Damaged() {
			t.Fatalf("trial %d: clean snapshot reported damage: %+v", trial, stats)
		}

		rcurve, err := restored.SettlementCurveCtx(ctx, alpha, ph, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(curve, rcurve) {
			t.Fatalf("trial %d: restored curve differs from live curve", trial)
		}
		rlo, rhi, err := restored.SettlementBracketCtx(ctx, alpha, ph, k, 1e-30)
		if err != nil {
			t.Fatal(err)
		}
		if rlo != lo || rhi != hi {
			t.Fatalf("trial %d: restored bracket [%v,%v] != live [%v,%v]", trial, rlo, rhi, lo, hi)
		}
		if st := restored.Stats(); st.Builds != 0 {
			t.Fatalf("trial %d: restored oracle rebuilt %d curves; snapshot served nothing", trial, st.Builds)
		}
	}
}

func checkReadoutResidencyIdentity(t *testing.T, r *rand.Rand) {
	ctx := context.Background()
	for trial := 0; trial < 2; trial++ {
		p := randParams(t, r)
		comp := settlement.New(p)
		chains := []struct {
			name string
			mk   func() *lattice.Curve
		}{
			{"exact", func() *lattice.Curve { return comp.Curve(0) }},
			{"pruned", func() *lattice.Curve { return comp.Curve(1e-30) }},
			{"upper", func() *lattice.Curve { return comp.UpperCurve(comp.CapForTarget(1e-6)) }},
		}
		for _, ch := range chains {
			kept, released := ch.mk(), ch.mk()
			// Extensions grow the horizon by 1–24 steps up to 200, so they
			// land both inside one ladder capacity and across the 16…128
			// crossings; each op is an extend, a release or a query of a
			// random computed horizon.
			for op := 0; op < 40; op++ {
				switch r.Intn(3) {
				case 0:
					k := min(kept.Len()+1+r.Intn(24), 200)
					if err := kept.Extend(k); err != nil {
						t.Fatal(err)
					}
					if err := released.Extend(k); err != nil {
						t.Fatal(err)
					}
				case 1:
					released.Release()
				}
				if released.Len() != kept.Len() {
					t.Fatalf("trial %d %s: lengths %d vs %d", trial, ch.name, released.Len(), kept.Len())
				}
				if n := kept.Len(); n > 0 {
					h := 1 + r.Intn(n)
					if math.Float64bits(released.Lower(h)) != math.Float64bits(kept.Lower(h)) ||
						math.Float64bits(released.Upper(h)) != math.Float64bits(kept.Upper(h)) {
						t.Fatalf("trial %d %s op %d: horizon %d reads [%v,%v] released, [%v,%v] kept",
							trial, ch.name, op, h, released.Lower(h), released.Upper(h), kept.Lower(h), kept.Upper(h))
					}
				}
			}
			for h := 1; h <= kept.Len(); h++ {
				if math.Float64bits(released.Lower(h)) != math.Float64bits(kept.Lower(h)) ||
					math.Float64bits(released.Upper(h)) != math.Float64bits(kept.Upper(h)) {
					t.Fatalf("trial %d %s: horizon %d differs after the interleaving", trial, ch.name, h)
				}
			}
		}

		// The oracle releases after every extension: a random sequence of
		// curve and bracket queries on one entry serves the never-released
		// curves' bits.
		o := oracle.New(4)
		alpha, ph := p.PA(), p.Ph
		_, cp, err := oracle.Canonicalize(alpha, ph, 0)
		if err != nil {
			t.Fatal(err)
		}
		canon := settlement.New(cp)
		exact, pruned := canon.Curve(0), canon.Curve(1e-30)
		for q := 0; q < 8; q++ {
			k := 1 + r.Intn(150)
			if err := exact.Extend(k); err != nil {
				t.Fatal(err)
			}
			if err := pruned.Extend(k); err != nil {
				t.Fatal(err)
			}
			got, err := o.SettlementCurveCtx(ctx, alpha, ph, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := exact.ValuesUpTo(k); !slices.Equal(got, want) {
				t.Fatalf("trial %d query %d: oracle curve at k = %d differs from a never-released curve", trial, q, k)
			}
			lo, hi, err := o.SettlementBracketCtx(ctx, alpha, ph, k, 1e-30)
			if err != nil {
				t.Fatal(err)
			}
			if wlo, whi := pruned.Bracket(k); math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
				t.Fatalf("trial %d query %d: oracle bracket at k = %d is [%v,%v], never-released [%v,%v]", trial, q, k, lo, hi, wlo, whi)
			}
		}
	}
}

// sparseTaus are the chains rung-sparse-identity runs: exact, and the
// pruned chain the bracket queries of the served workloads use.
var sparseTaus = []float64{0, 1e-30}

func checkRungSparseIdentity(t *testing.T, r *rand.Rand) {
	ctx := context.Background()
	const kMax = 256
	for trial := 0; trial < 2; trial++ {
		p := randParams(t, r)
		alpha, ph := p.PA(), p.Ph
		_, cp, err := oracle.Canonicalize(alpha, ph, 0)
		if err != nil {
			t.Fatal(err)
		}
		canon := settlement.New(cp)
		dense := make([]*lattice.Curve, len(sparseTaus))
		for i, tau := range sparseTaus {
			dense[i] = canon.Curve(tau)
			if err := dense[i].Extend(kMax); err != nil {
				t.Fatal(err)
			}
		}
		sameAt := func(i int, cv *lattice.Curve, h int) bool {
			lo, hi := cv.Bracket(h)
			wlo, whi := dense[i].Bracket(h)
			return math.Float64bits(lo) == math.Float64bits(wlo) && math.Float64bits(hi) == math.Float64bits(whi)
		}

		// The curve itself: every published horizon reads the dense bits,
		// whatever mix of operations published it.
		for i := range sparseTaus {
			cv := canon.Curve(sparseTaus[i])
			for op := 0; op < 30; op++ {
				k := 1 + r.Intn(kMax)
				switch r.Intn(5) {
				case 0, 1:
					if err := cv.Publish(k); err != nil {
						t.Fatal(err)
					}
				case 2:
					if err := cv.Extend(k); err != nil {
						t.Fatal(err)
					}
					if !cv.HasPrefix(k) {
						t.Fatalf("trial %d τ=%v: Extend(%d) left a hole", trial, sparseTaus[i], k)
					}
				case 3:
					cv.Release()
				case 4:
					lower, drop := cv.State()
					cv = canon.Curve(sparseTaus[i])
					if err := cv.Restore(lower, drop); err != nil {
						t.Fatalf("trial %d τ=%v: restore: %v", trial, sparseTaus[i], err)
					}
				}
				for h := 1; h <= cv.Len(); h++ {
					if cv.Has(h) && !sameAt(i, cv, h) {
						t.Fatalf("trial %d τ=%v op %d: horizon %d differs from the dense build", trial, sparseTaus[i], op, h)
					}
				}
			}
		}

		// The oracle: single-horizon, curve and batch queries, with
		// snapshot round trips into a fresh oracle between them.
		o := oracle.New(4)
		frac := cp.Ph / (1 - cp.PA())
		for op := 0; op < 40; op++ {
			k := 1 + r.Intn(kMax)
			switch r.Intn(6) {
			case 0:
				v, err := o.SettlementFailureCtx(ctx, alpha, ph, k)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(v) != math.Float64bits(dense[0].Lower(k)) {
					t.Fatalf("trial %d op %d: failure at k = %d is %v, dense %v", trial, op, k, v, dense[0].Lower(k))
				}
			case 1:
				lo, hi, err := o.SettlementBracketCtx(ctx, alpha, ph, k, sparseTaus[1])
				if err != nil {
					t.Fatal(err)
				}
				if wlo, whi := dense[1].Bracket(k); math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
					t.Fatalf("trial %d op %d: bracket at k = %d is [%v,%v], dense [%v,%v]", trial, op, k, lo, hi, wlo, whi)
				}
			case 2:
				got, err := o.SettlementCurveCtx(ctx, alpha, ph, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, dense[0].ValuesUpTo(k)) {
					t.Fatalf("trial %d op %d: curve at k = %d differs from the dense build", trial, op, k)
				}
			case 3:
				k2 := 1 + r.Intn(kMax)
				res, _, err := o.BatchCtx(ctx, []oracle.BatchQuery{
					{Op: "cell", Alpha: alpha, Frac: &frac, K: k},
					{Op: "bracket", Alpha: alpha, Ph: &ph, K: k2, Tau: sparseTaus[1]},
				}, 1)
				if err != nil {
					t.Fatal(err)
				}
				wlo, whi := dense[1].Bracket(k2)
				if res[0].P == nil || math.Float64bits(*res[0].P) != math.Float64bits(dense[0].Lower(k)) ||
					res[1].Lower == nil || math.Float64bits(*res[1].Lower) != math.Float64bits(wlo) ||
					math.Float64bits(*res[1].Upper) != math.Float64bits(whi) {
					t.Fatalf("trial %d op %d: batch at k = %d, %d answers %+v %+v", trial, op, k, k2, res[0], res[1])
				}
			default:
				var buf bytes.Buffer
				if _, err := o.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				o = oracle.New(4)
				if stats, err := o.LoadSnapshot(&buf); err != nil || stats.Damaged() || stats.Skipped > 0 {
					t.Fatalf("trial %d op %d: snapshot round trip: %+v, %v", trial, op, stats, err)
				}
			}
		}
	}
}

func checkFailoverAnswerIdentity(t *testing.T, r *rand.Rand) {
	o := oracle.New(0)
	srv := oracle.NewServer(o, 0)

	// A peer that owns part of the key space but is dead: a port that was
	// just reserved and released, so every forward attempt fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	var cl *oracle.Cluster
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		cl.ServeHTTP(w, req)
	}))
	defer hs.Close()
	// The shipped forwarding policy: a refused connection fails each of
	// the attempts long before the hedge timer, and once the breaker
	// opens every dead-owned query falls back at once.
	cl = oracle.NewCluster(srv, oracle.ClusterConfig{Self: hs.URL, Peers: []string{hs.URL, dead}})

	fallbacksSeen := false
	for trial := 0; trial < 12; trial++ {
		p := randParams(t, r)
		alpha, ph := p.PA(), p.Ph
		k := 20 + r.Intn(20)

		resp, err := http.Get(fmt.Sprintf("%s/v1/failure?alpha=%g&ph=%g&k=%d", hs.URL, alpha, ph, k))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d: status %d under peer failure: %s", trial, resp.StatusCode, body)
		}
		var got struct {
			P float64 `json:"p"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}

		// The cold path: a fresh local compute at the canonicalized point.
		_, cp, err := oracle.Canonicalize(alpha, ph, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := settlement.New(cp).ViolationProbability(k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.P) != math.Float64bits(want) {
			t.Fatalf("trial %d: answer under peer failure %v != cold path %v", trial, got.P, want)
		}
		if cl.Stats().LocalFallbacks > 0 {
			fallbacksSeen = true
		}
	}
	if !fallbacksSeen {
		t.Fatal("no query exercised the degraded fallback path (all keys self-owned?)")
	}
}

// The query-path identity checks send well-formed queries — exactly one
// of ph and frac (a cell always frac) and every parameter the op reads,
// any of them possibly out of range — through each door and compare the
// answers as batch results: equal error texts, or equal depths and
// bitwise-equal numbers.

// numbers lists a result's values: the curve, then p, lower and upper.
func numbers(r oracle.BatchResult) []float64 {
	v := slices.Clone(r.Curve)
	for _, p := range []*float64{r.P, r.Lower, r.Upper} {
		if p != nil {
			v = append(v, *p)
		}
	}
	return v
}

func sameAnswer(a, b oracle.BatchResult) bool {
	return a.Error == b.Error && a.Depth == b.Depth && slices.EqualFunc(numbers(a), numbers(b),
		func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// phOf resolves q's ph as every door does: ph = frac·(1−α) from frac.
func phOf(q oracle.BatchQuery) float64 {
	if q.Frac != nil {
		return *q.Frac * (1 - q.Alpha)
	}
	return *q.Ph
}

// ctxAsk asks q through its …Ctx method.
func ctxAsk(o *oracle.Oracle, q oracle.BatchQuery) oracle.BatchResult {
	ctx, ph := context.Background(), phOf(q)
	var r oracle.BatchResult
	var p, lo, hi float64
	var err error
	switch q.Op {
	case "depth":
		r.Depth, err = o.ConfirmationDepthCtx(ctx, q.Alpha, ph, q.Target, q.KMax)
	case "curve":
		r.Curve, err = o.SettlementCurveCtx(ctx, q.Alpha, ph, q.K)
	case "failure":
		p, err = o.SettlementFailureCtx(ctx, q.Alpha, ph, q.K)
		r.P = &p
	case "cell":
		p, err = o.TableCellCtx(ctx, *q.Frac, q.K, q.Alpha)
		r.P = &p
	case "bracket":
		lo, hi, err = o.SettlementBracketCtx(ctx, q.Alpha, ph, q.K, q.Tau)
		r.Lower, r.Upper = &lo, &hi
	}
	if err != nil {
		return oracle.BatchResult{Error: err.Error()}
	}
	return r
}

// getAsk asks q through GET /v1/<op> on h. Numbers are written in the
// shortest form that parses back to the same float64, so the URL and the
// JSON answer both carry exact bits; the body's error, depth, p, lower,
// upper and curve fields are a batch result's. A 200 must also report
// the canonical point the key snaps the query to.
func getAsk(t *testing.T, h http.Handler, q oracle.BatchQuery) oracle.BatchResult {
	t.Helper()
	ff := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	v := url.Values{"alpha": {ff(q.Alpha)}}
	if q.Frac != nil {
		v.Set("frac", ff(*q.Frac))
	} else {
		v.Set("ph", ff(*q.Ph))
	}
	if q.Op == "depth" {
		v.Set("target", ff(q.Target))
		v.Set("kmax", strconv.Itoa(q.KMax))
	} else {
		v.Set("k", strconv.Itoa(q.K))
	}
	if q.Op == "bracket" {
		v.Set("tau", ff(q.Tau))
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/"+q.Op+"?"+v.Encode(), nil))
	var res oracle.BatchResult
	var point struct{ Alpha, Ph, Frac float64 }
	if json.Unmarshal(rr.Body.Bytes(), &res) != nil || json.Unmarshal(rr.Body.Bytes(), &point) != nil ||
		(rr.Code == http.StatusOK) != (res.Error == "") {
		t.Fatalf("GET %s: status %d, body %q", v.Encode(), rr.Code, rr.Body)
	}
	if key, _, err := oracle.Canonicalize(q.Alpha, phOf(q), 0); rr.Code == http.StatusOK &&
		(err != nil || point.Alpha != key.Alpha() || point.Ph != key.Ph() || point.Frac != key.HonestFraction()) {
		t.Errorf("GET %s: reports the point %+v, its key %+v (err %v)", v.Encode(), point, key, err)
	}
	return res
}

// randomQuery draws a query over every op on a small grid of parameter
// points, jittered within half a basis point so the key has to snap
// them, and gives one in three a fault: an out-of-range k, kmax, target,
// honest fraction or τ, a point outside the canonical domain, two
// faults at once, or a depth target too deep to reach (the 422).
func randomQuery(r *rand.Rand) oracle.BatchQuery {
	ops := []string{"depth", "curve", "failure", "cell", "bracket"}
	q := oracle.BatchQuery{Op: ops[r.Intn(len(ops))], K: 1 + r.Intn(120)}
	q.Alpha = []float64{0.10, 0.20, 0.25, 0.30}[r.Intn(4)] + (r.Float64()-0.5)*1e-5
	x := []float64{0.25, 0.5, 0.75, 1}[r.Intn(4)]
	switch q.Op {
	case "depth":
		q.K, q.Target, q.KMax = 0, []float64{1e-3, 1e-6, 1e-9}[r.Intn(3)], 64<<r.Intn(3)
	case "bracket":
		q.Tau = []float64{0, 1e-30, 1e-12}[r.Intn(3)]
	}
	if r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			q.Alpha = []float64{0, 0.5, 0.72, -0.1}[r.Intn(4)]
		case 1: // past the uniquely honest ceiling, or below zero
			x = []float64{0.95, -0.1, 1.5}[r.Intn(3)]
		case 2:
			q.K = []int{0, -3, oracle.MaxQueryHorizon + 1}[r.Intn(3)]
			q.KMax = []int{0, -3, oracle.MaxDepthKMax + 1}[r.Intn(3)]
		case 3:
			q.Target, q.Tau = []float64{0, 1, 2.5, -1e-3}[r.Intn(4)], -1
		case 4: // unreachable for a depth search; a bad k for the rest
			q.Target, q.K, q.KMax = 1e-12, 0, 2
		case 5:
			q.Alpha, q.K, q.KMax = 0.6, 0, 0
		}
	}
	if q.Op == "cell" || r.Intn(2) == 0 {
		q.Frac = &x
	} else {
		ph := x * (1 - q.Alpha)
		q.Ph = &ph
	}
	return q
}

func checkGetBatchAnswerIdentity(t *testing.T, r *rand.Rand) {
	qs := make([]oracle.BatchQuery, 48)
	for i := range qs {
		qs[i] = randomQuery(r)
	}
	for _, workers := range []int{1, 4} {
		ctxO, batchO := oracle.New(0), oracle.New(0)
		getH := oracle.NewServer(oracle.New(0), 0).Handler()
		for _, cache := range []string{"cold", "warm"} {
			batch, _, err := batchO.BatchCtx(context.Background(), qs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				want := ctxAsk(ctxO, q)
				for door, got := range map[string]oracle.BatchResult{"GET": getAsk(t, getH, q), "batch slot": batch[i]} {
					if !sameAnswer(got, want) {
						t.Errorf("%d workers, %s: %s query %+v: %s answers %q %d %v, …Ctx %q %d %v", workers, cache, q.Op, q,
							door, got.Error, got.Depth, numbers(got), want.Error, want.Depth, numbers(want))
					}
				}
			}
			r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		}
	}
}
