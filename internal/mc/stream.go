package mc

import (
	"multihonest/internal/catalan"
	"multihonest/internal/charstring"
	"multihonest/internal/cp"
	"multihonest/internal/deltasync"
	"multihonest/internal/margin"
	"multihonest/internal/runner"
)

// This file carries the streaming (fused sample–judge) implementations of
// every experiment verdict. Each type mirrors one of the slice-at-a-time
// verdicts in mc.go one-for-one; the slice forms stay exported as the
// reference oracles (TestStreamVerdictEquivalence pins the two to agree on
// every string). The exported experiment functions run on these streaming
// forms via runner.RunStreamBlocks (block.go adds the FeedBlock paths):
// per-worker reusable scratch, zero steady-state allocations, raw-uint64
// threshold sampling, and early exit the moment a verdict is decided.
//
// The symbol-at-a-time samplers below are the scalar decoders of the
// block samplers: they turn a sample's raw stream into the symbols its
// block verdict must agree with.

// StreamBernoulliSampler is the raw-uint64 threshold sampler of the
// (ǫ, ph)-Bernoulli law: one splitmix64 draw and at most two compares per
// symbol.
func StreamBernoulliSampler(p charstring.Params) runner.SymbolSampler {
	th := p.Thresholds()
	return func(rng *runner.SM64, _ int) charstring.Symbol { return th.Symbol(rng.Uint64()) }
}

// StreamConditionedSemiSyncSampler is semi-synchronous raw-uint64
// threshold sampling conditioned on slot s having a leader: an empty slot
// s is promoted to uniquely honest (settlement of an empty slot is
// vacuous).
func StreamConditionedSemiSyncSampler(sp charstring.SemiSyncParams, s int) runner.SymbolSampler {
	th := sp.Thresholds()
	return func(rng *runner.SM64, slot int) charstring.Symbol {
		sym := th.Symbol(rng.Uint64())
		if slot == s && sym == charstring.Empty {
			return charstring.UniqueHonest
		}
		return sym
	}
}

// NewSettlementStreamVerdict returns the streaming Table 1 verdict
// (µ_x(y) ≥ 0 for w = xy, |x| = m, |w| = T) as a reusable
// runner.StreamVerdict. It is exported for package rare, whose tilted
// estimator wraps exactly this verdict with a likelihood-ratio
// accumulator — the θ = 0 tilt then reproduces the E3 streaming path bit
// for bit.
func NewSettlementStreamVerdict(m, T int) runner.StreamVerdict {
	return newSettlementStream(m, T)
}

// NewCPStreamVerdict returns the streaming E5 verdict (a UVP-free window
// of length ≥ k exists) as a reusable runner.StreamVerdict, exported for
// package rare.
func NewCPStreamVerdict(k int, consistentTies bool) runner.StreamVerdict {
	return newCPStream(k, consistentTies)
}

// NewDeltaUnsettledStreamVerdict returns the streaming E4 verdict (slot s
// lacks the Lemma 2 (k, Δ)-settlement certificate over T-slot inputs) as
// a reusable runner.StreamVerdict, exported for package rare.
func NewDeltaUnsettledStreamVerdict(s, k, delta, T int) (runner.StreamVerdict, error) {
	return newDeltaUnsettledStream(s, k, delta, T)
}

// NewNoUHCatalanStreamVerdict returns the streaming E1 verdict (no
// uniquely honest Catalan slot in the k-slot window starting at s) as a
// reusable runner.StreamVerdict. Exported as a test hook so the
// conformance suite can pin it against NoUniquelyHonestCatalanVerdict,
// the slice-at-a-time reference oracle.
func NewNoUHCatalanStreamVerdict(s, k int) runner.StreamVerdict {
	return newNoUHCatalanStream(s, k)
}

// NewNoConsecCatalanStreamVerdict returns the streaming E2 verdict (no
// two consecutive Catalan slots in the k-slot window starting at s) as a
// reusable runner.StreamVerdict. Exported as a test hook so the
// conformance suite can pin it against NoConsecutiveCatalanVerdict.
func NewNoConsecCatalanStreamVerdict(s, k int) runner.StreamVerdict {
	return newNoConsecCatalanStream(s, k)
}

// noUHCatalanStream is the streaming E1 verdict: the k-slot window starting
// at slot s contains no uniquely honest Catalan slot of the whole string.
// Candidates are uniquely honest left-Catalan window slots; the verdict is
// true iff none survives. Once the stream is past the window with no
// candidate alive, no future symbol can create one — the verdict is
// decided true and sampling stops.
type noUHCatalanStream struct {
	winLo, winHi int
	st           catalan.Stream
	decided      bool
}

func newNoUHCatalanStream(s, k int) *noUHCatalanStream {
	v := &noUHCatalanStream{winLo: s, winHi: s + k - 1}
	v.st.Filter = func(slot int, sym charstring.Symbol) bool {
		return sym == charstring.UniqueHonest && slot >= v.winLo && slot <= v.winHi
	}
	return v
}

func (v *noUHCatalanStream) Reset() {
	v.st.Reset()
	v.decided = false
}

func (v *noUHCatalanStream) Feed(sym charstring.Symbol) bool {
	v.st.Feed(sym)
	if v.st.Len() > v.winHi && v.st.PendingCount() == 0 {
		v.decided = true
		return true
	}
	return false
}

func (v *noUHCatalanStream) Finish() (bool, error) {
	return v.decided || v.st.PendingCount() == 0, nil
}

// noConsecCatalanStream is the streaming E2 verdict: the k-slot window
// starting at slot s contains no two consecutive Catalan slots. Candidates
// are honest left-Catalan window slots; a consecutive pair must start at a
// slot c ∈ [s, s+k−2]. Past the window, pairs can only be destroyed by
// kills, so the verdict is decided true as soon as no adjacent candidate
// pair remains.
type noConsecCatalanStream struct {
	winLo, winHi int
	st           catalan.Stream
	decided      bool
}

func newNoConsecCatalanStream(s, k int) *noConsecCatalanStream {
	v := &noConsecCatalanStream{winLo: s, winHi: s + k - 1}
	v.st.Filter = func(slot int, _ charstring.Symbol) bool {
		return slot >= v.winLo && slot <= v.winHi
	}
	return v
}

func (v *noConsecCatalanStream) Reset() {
	v.st.Reset()
	v.decided = false
}

func (v *noConsecCatalanStream) hasPair() bool {
	pend := v.st.Pending()
	for i := 1; i < len(pend); i++ {
		if c := pend[i-1].Slot; pend[i].Slot == c+1 && c <= v.winHi-1 {
			return true
		}
	}
	return false
}

func (v *noConsecCatalanStream) Feed(sym charstring.Symbol) bool {
	v.st.Feed(sym)
	if v.st.Len() > v.winHi && !v.hasPair() {
		v.decided = true
		return true
	}
	return false
}

func (v *noConsecCatalanStream) Finish() (bool, error) {
	return v.decided || !v.hasPair(), nil
}

// settlementStream is the streaming Table 1 verdict: µ_x(y) ≥ 0 for the
// decomposition w = xy with |x| = m, run on margin.State. During the
// prefix only the reach evolves; from the decomposition point the joint
// (ρ, µ) recurrence runs, and the verdict is decided early as soon as the
// remaining symbols cannot move µ across 0 (µ moves by at most ±1 per
// symbol).
type settlementStream struct {
	m, T             int
	t                int
	st               margin.State
	decided, verdict bool
}

func newSettlementStream(m, T int) *settlementStream {
	return &settlementStream{m: m, T: T}
}

func (v *settlementStream) Reset() {
	v.t = 0
	v.st = margin.State{}
	v.decided = false
}

func (v *settlementStream) Feed(sym charstring.Symbol) bool {
	v.t++
	if v.t <= v.m {
		v.st.Rho = margin.StepRho(v.st.Rho, sym)
		if v.t == v.m {
			v.st.Mu = v.st.Rho // µ_x(ε) = ρ(x)
		}
		return false
	}
	v.st.Rho, v.st.Mu = margin.StepMu(v.st.Rho, v.st.Mu, sym)
	rem := v.T - v.t
	if v.st.Mu-rem >= 0 {
		v.decided, v.verdict = true, true
		return true
	}
	if v.st.Mu+rem < 0 {
		v.decided, v.verdict = true, false
		return true
	}
	return false
}

func (v *settlementStream) Finish() (bool, error) {
	if v.decided {
		return v.verdict, nil
	}
	return v.st.Mu >= 0, nil
}

// cpStream is the streaming E5 verdict: the string has a UVP-free window
// of length ≥ k. It rides cp.WindowStream: the certified lower bound
// decides the verdict true early; otherwise the exact window is computed
// at the end of the string.
type cpStream struct {
	k       int
	ws      cp.WindowStream
	decided bool
}

func newCPStream(k int, consistentTies bool) *cpStream {
	return &cpStream{k: k, ws: cp.WindowStream{ConsistentTies: consistentTies}}
}

func (v *cpStream) Reset() {
	v.ws.Reset()
	v.decided = false
}

func (v *cpStream) Feed(sym charstring.Symbol) bool {
	v.ws.Feed(sym)
	if v.ws.Certified() >= v.k {
		v.decided = true
		return true
	}
	return false
}

func (v *cpStream) Finish() (bool, error) {
	return v.decided || v.ws.Finish() >= v.k, nil
}

// deltaUnsettledStream is the streaming E4 verdict: slot s of a
// semi-synchronous execution lacks the Lemma 2 (k, Δ)-settlement
// certificate. deltasync.SettledStream decides "no certificate" early;
// a present certificate is confirmed at the end of the string.
type deltaUnsettledStream struct {
	ss *deltasync.SettledStream
}

func newDeltaUnsettledStream(s, k, delta, T int) (*deltaUnsettledStream, error) {
	ss, err := deltasync.NewSettledStream(s, k, delta, T)
	if err != nil {
		return nil, err
	}
	return &deltaUnsettledStream{ss: ss}, nil
}

func (v *deltaUnsettledStream) Reset() { v.ss.Reset() }

func (v *deltaUnsettledStream) Feed(sym charstring.Symbol) bool { return v.ss.Feed(sym) }

func (v *deltaUnsettledStream) Finish() (bool, error) {
	settled, err := v.ss.Finish()
	return !settled, err
}
