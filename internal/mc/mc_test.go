package mc

import (
	"math"
	"math/rand"
	"testing"

	"multihonest/internal/catalan"
	"multihonest/internal/charstring"
	"multihonest/internal/margin"
	"multihonest/internal/settlement"
)

// TestSettlementViolationMatchesDP cross-validates the Monte-Carlo
// estimator against the exact dynamic program at parameters where the
// probability is large enough to measure.
func TestSettlementViolationMatchesDP(t *testing.T) {
	p := charstring.MustParams(1-2*0.30, 0.25*(1-0.30)) // α=0.30, frac=0.25
	const m, k, n = 600, 100, 30000
	est := SettlementViolation(p, m, k, n, 17, 0)
	exact, err := settlement.New(p).ViolationProbability(k)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 1 cell: 1.65E-02. The finite prefix m=600 is effectively
	// stationary here (β = α/(1−α) ≈ 0.43, β^600 ≈ 0).
	if exact < est.Lo-0.002 || exact > est.Hi+0.002 {
		t.Fatalf("DP %.4g outside MC interval %v", exact, est)
	}
}

// TestBoundEventsDecay: the no-Catalan events must decay with k.
func TestBoundEventsDecay(t *testing.T) {
	p := charstring.MustParams(0.4, 0.4)
	e20 := NoUniquelyHonestCatalan(p, 30, 20, 100, 4000, 3, 0)
	e60 := NoUniquelyHonestCatalan(p, 30, 60, 100, 4000, 3, 0)
	if e60.P > e20.P {
		t.Fatalf("Bound-1 event grew with k: %v vs %v", e60, e20)
	}
	b20 := NoConsecutiveCatalan(0.5, 30, 20, 100, 4000, 4, 0)
	b80 := NoConsecutiveCatalan(0.5, 30, 80, 100, 4000, 4, 0)
	if b80.P > b20.P {
		t.Fatalf("Bound-2 event grew with k: %v vs %v", b80, b20)
	}
}

// TestCPDecay: CP-violation possibility decays in k and is helped by
// consistent ties at ph = 0.
func TestCPDecay(t *testing.T) {
	p := charstring.MustParams(0.4, 0)
	adv := CPViolationPossible(p, 300, 40, 800, 5, false, 0)
	con := CPViolationPossible(p, 300, 40, 800, 5, true, 0)
	if con.P > adv.P {
		t.Fatalf("consistent ties made things worse: %v vs %v", con, adv)
	}
	if adv.P < 0.99 {
		t.Fatalf("bivalent strings under adversarial ties should almost always be exposed: %v", adv)
	}
	// Consistent ties give a certificate that improves with k.
	conLong := CPViolationPossible(p, 300, 90, 800, 5, true, 0)
	if conLong.P >= con.P {
		t.Fatalf("consistent-ties exposure should decay in k: %v at k=90 vs %v at k=40", conLong, con)
	}
}

// TestDeltaUnsettledMonotoneInDelta: larger delays can only hurt.
func TestDeltaUnsettledMonotoneInDelta(t *testing.T) {
	sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, delta := range []int{0, 2, 6} {
		est, err := DeltaUnsettled(sp, delta, 10, 60, 200, 3000, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if est.P+0.03 < prev {
			t.Fatalf("unsettled rate decreased with delay at Δ=%d: %v after %v", delta, est.P, prev)
		}
		prev = est.P
	}
}

// TestWorkerCountInvariance: every experiment yields a bit-identical
// Estimate at 1, 4 and 8 workers for a fixed seed — the runner contract,
// exercised through the real verdicts.
func TestWorkerCountInvariance(t *testing.T) {
	p := charstring.MustParams(0.3, 0.2)
	sp, err := charstring.NewSemiSyncParams(0.8, 0.12, 0.03, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		f    func(workers int) Estimate
	}{
		{"NoUniquelyHonestCatalan", func(w int) Estimate { return NoUniquelyHonestCatalan(p, 20, 40, 100, 3000, 11, w) }},
		{"NoConsecutiveCatalan", func(w int) Estimate { return NoConsecutiveCatalan(0.4, 20, 40, 100, 3000, 12, w) }},
		{"SettlementViolation", func(w int) Estimate { return SettlementViolation(p, 150, 50, 3000, 13, w) }},
		{"CPViolationPossible", func(w int) Estimate { return CPViolationPossible(p, 200, 30, 3000, 14, false, w) }},
		{"DeltaUnsettled", func(w int) Estimate {
			e, err := DeltaUnsettled(sp, 3, 8, 40, 100, 2000, 15, w)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
	for _, r := range runs {
		ref := r.f(1)
		if ref.N == 0 {
			t.Fatalf("%s: empty estimate", r.name)
		}
		for _, workers := range []int{4, 8} {
			if got := r.f(workers); got != ref {
				t.Errorf("%s: workers=%d gave %v, serial gave %v", r.name, workers, got, ref)
			}
		}
	}
}

// oldSerialNoUHCatalan reimplements the pre-runner mc path verbatim: one
// sequential rand stream across all n samples. The batched runner draws a
// different (equally valid) stream, so the two must agree statistically,
// not bitwise.
func oldSerialNoUHCatalan(p charstring.Params, s, k, tail, n int, seed int64) Estimate {
	rng := rand.New(rand.NewSource(seed))
	T := s - 1 + k + tail
	hits := 0
	for i := 0; i < n; i++ {
		w := p.Sample(rng, T)
		sc := catalan.Analyze(w)
		found := false
		for c := s; c <= s-1+k; c++ {
			if sc.UniquelyHonestCatalan(c) {
				found = true
				break
			}
		}
		if !found {
			hits++
		}
	}
	return newTestEstimate(hits, n)
}

func oldSerialSettlementViolation(p charstring.Params, m, k, n int, seed int64) Estimate {
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	for i := 0; i < n; i++ {
		w := p.Sample(rng, m+k)
		if margin.RelativeMargin(w, m) >= 0 {
			hits++
		}
	}
	return newTestEstimate(hits, n)
}

func newTestEstimate(hits, n int) Estimate {
	e := Estimate{Hits: hits, N: n, P: float64(hits) / float64(n)}
	return e
}

// TestOldSerialPathEquivalence: the runner-backed experiments agree with
// the pre-runner single-stream implementation within Monte-Carlo error —
// the serial-vs-parallel equivalence check against the old mc path.
func TestOldSerialPathEquivalence(t *testing.T) {
	p := charstring.MustParams(0.35, 0.25)
	const n = 20000
	{
		old := oldSerialNoUHCatalan(p, 25, 30, 120, n, 101)
		neu := NoUniquelyHonestCatalan(p, 25, 30, 120, n, 101, 0)
		se := 3 * math.Sqrt(old.P*(1-old.P)/n+neu.P*(1-neu.P)/n)
		if d := math.Abs(old.P - neu.P); d > se+1e-9 {
			t.Errorf("Bound-1 event: old %.5f vs runner %.5f differ by %.5f > 3·SE %.5f", old.P, neu.P, d, se)
		}
	}
	{
		old := oldSerialSettlementViolation(p, 120, 30, n, 202)
		neu := SettlementViolation(p, 120, 30, n, 202, 0)
		se := 3 * math.Sqrt(old.P*(1-old.P)/n+neu.P*(1-neu.P)/n)
		if d := math.Abs(old.P - neu.P); d > se+1e-9 {
			t.Errorf("settlement event: old %.5f vs runner %.5f differ by %.5f > 3·SE %.5f", old.P, neu.P, d, se)
		}
	}
}
