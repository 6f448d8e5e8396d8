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
	"slices"
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
			Anchor: "oracle.Oracle.SettlementCurve / oracle.Canonicalize (internal/oracle/oracle.go)",
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
			Anchor: "lattice.Curve.Release (internal/lattice/curve.go) + oracle extendLocked / depthLocked (internal/oracle/oracle.go)",
			Check:  checkReadoutResidencyIdentity,
		},
		{
			Name: "failover-answer-identity",
			Statement: "A replica answering a query whose shard owner is dead — " +
				"retries exhausted, degraded local-compute fallback — returns " +
				"bytes identical to a fresh cold compute at the same point.",
			Anchor: "oracle.Cluster.forwardOrHedge (internal/oracle/cluster.go) + lattice.Curve's canonical capacity ladder",
			Check:  checkFailoverAnswerIdentity,
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
