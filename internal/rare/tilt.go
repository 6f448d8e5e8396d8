package rare

import (
	"fmt"
	"math"
	"math/bits"

	"multihonest/internal/charstring"
	"multihonest/internal/margin"
	"multihonest/internal/runner"
)

// This file is the exponential-tilting engine: proposal laws over the
// trivalent {h, H, A} and quadrivalent {⊥, h, H, A} symbol alphabets tilted
// along the walk statistic, the saddle-point/variance-targeting choice of
// the tilt parameter, and the likelihood-ratio accumulator that fuses into
// the PR 3 streaming loop.
//
// # The tilted family
//
// The per-slot laws of the paper are i.i.d. over symbols whose only
// analytically relevant statistic is the walk increment (+1 for A, −1 for
// honest, 0 for ⊥). Tilting along that statistic yields the exponential
// family
//
//	p_θ(σ) = p(σ)·e^{θ·walk(σ)} / M(θ),
//	M(θ)   = p⊥ + pA·e^{θ} + (ph+pH)·e^{−θ},
//
// which preserves the h:H ratio (both step −1) and leaves ⊥ mass scaled by
// the normalizer only. The per-symbol log-likelihood ratio of the true law
// against the proposal is log M(θ) − θ·walk(σ), so a sample's LLR
// telescopes to
//
//	llr = n·log M(θ) − θ·S_n
//
// where n is the number of tilted symbols drawn and S_n their walk sum —
// two integer counters fused into the verdict loop, one Exp at Finish.
// Early exit is sound: the verdict is measurable in the drawn prefix and
// the undrawn suffix has conditional expected likelihood ratio one, so
// weighting by the prefix LLR leaves the estimator unbiased.

// Tilt carries the two constants of a tilted proposal: the tilt parameter
// and the log-normalizer. The zero value is the unit tilt (proposal =
// true law, every weight exactly 1).
type Tilt struct {
	Theta float64 // tilt parameter θ
	LogM  float64 // log M(θ); exactly 0 at θ = 0
}

// LLR returns the log-likelihood ratio n·LogM − θ·S of a sample that drew
// n tilted symbols with walk sum S.
func (t Tilt) LLR(n, s int) float64 {
	return float64(n)*t.LogM - t.Theta*float64(s)
}

// SolveTheta returns the tilt θ at which the proposal's expected walk
// increment per slot equals drift d ∈ (−1, 1):
//
//	(pA·e^θ − pHon·e^{−θ}) / M(θ) = d.
//
// Substituting x = e^θ gives the quadratic pA(1−d)x² − d·p⊥·x − pHon(1+d)
// with a unique positive root. d = 0 is the saddle point of the deep-tail
// settlement event: the proposal walk becomes driftless, turning the
// margin excursion from exponentially rare into diffusive. pHon is the
// total honest mass ph + pH; p⊥ is 0 for the trivalent alphabet.
func SolveTheta(pA, pHon, pEmpty, d float64) (float64, error) {
	if pA <= 0 || pHon <= 0 || pEmpty < 0 {
		return 0, fmt.Errorf("rare: degenerate law pA=%v pHon=%v p⊥=%v", pA, pHon, pEmpty)
	}
	if d <= -1 || d >= 1 {
		return 0, fmt.Errorf("rare: target drift %v outside (-1,1)", d)
	}
	disc := d*d*pEmpty*pEmpty + 4*pA*(1-d)*pHon*(1+d)
	x := (d*pEmpty + math.Sqrt(disc)) / (2 * pA * (1 - d))
	return math.Log(x), nil
}

// SaddleTheta returns the zero-drift tilt θ* = ½·log(pHon/pA) for the
// trivalent law (the p⊥ = 0 closed form of SolveTheta at d = 0): the
// classical saddle point for the event that the walk ends non-negative,
// under which pA tilts to exactly ½.
func SaddleTheta(p charstring.Params) float64 {
	return 0.5 * math.Log(p.Q()/p.PA())
}

// TiltedSync is the tilted proposal over the synchronous alphabet.
type TiltedSync struct {
	Tilt
	Base charstring.Params
	th   charstring.Thresholds // proposal thresholds for tilted slots
}

// TiltSync builds the θ-tilted proposal for the (ǫ, ph)-Bernoulli law. At
// θ = 0 the proposal is the base law itself — M(0) = 1 analytically, and
// the thresholds are taken from the base table directly so that the unit
// tilt reproduces the PR 3 sampler bit for bit rather than up to
// float round-off in the normalizer.
func TiltSync(p charstring.Params, theta float64) TiltedSync {
	if theta == 0 {
		return TiltedSync{Base: p, th: p.Thresholds()}
	}
	pA, q := p.PA(), p.Q()
	e, en := math.Exp(theta), math.Exp(-theta)
	m := pA*e + q*en
	return TiltedSync{
		Tilt: Tilt{Theta: theta, LogM: math.Log(m)},
		Base: p,
		th:   charstring.NewThresholds(pA*e/m, p.Ph*en/m),
	}
}

// Sampler returns the proposal's symbol sampler: the first skip slots draw
// from the base law (and contribute nothing to the LLR — pair with the
// same skip on the TiltedVerdict), later slots from the tilted law. The
// settlement estimators use skip = m to leave the reach-building prefix x
// on the true law and tilt only the k-slot excursion window.
func (t TiltedSync) Sampler(skip int) runner.SymbolSampler {
	tilted := t.th
	if skip <= 0 {
		return func(rng *runner.SM64, _ int) charstring.Symbol { return tilted.Symbol(rng.Uint64()) }
	}
	base := t.Base.Thresholds()
	return func(rng *runner.SM64, slot int) charstring.Symbol {
		if slot <= skip {
			return base.Symbol(rng.Uint64())
		}
		return tilted.Symbol(rng.Uint64())
	}
}

// BlockSampler returns the proposal's block sampler — the block-at-a-time
// twin of Sampler, drawing identical symbol streams: blocks entirely past
// skip classify against the tilted table in one branch-free pass, blocks
// entirely inside the skip prefix against the base table, and the one
// block straddling the boundary classifies per-slot with the table the
// scalar sampler would pick.
func (t TiltedSync) BlockSampler(skip int) runner.BlockSampler {
	tilted := t.th
	base := t.Base.Thresholds()
	return func(rng *runner.SM64, basePos int, blk *runner.Block) {
		rng.Fill(&blk.Raw)
		blk.EMask = 0
		switch {
		case basePos >= skip:
			blk.AMask, blk.HMask = tilted.ClassifyBlock(&blk.Raw, &blk.Syms)
		case basePos+runner.BlockSize <= skip:
			blk.AMask, blk.HMask = base.ClassifyBlock(&blk.Raw, &blk.Syms)
		default:
			cut := skip - basePos // slots ≤ skip draw from the base law
			var am, hm uint64
			for i := 0; i < runner.BlockSize; i++ {
				th := tilted
				if i < cut {
					th = base
				}
				sym := th.Symbol(blk.Raw[i])
				blk.Syms[i] = sym
				switch sym {
				case charstring.Adversarial:
					am |= 1 << uint(i)
				case charstring.UniqueHonest:
					hm |= 1 << uint(i)
				}
			}
			blk.AMask, blk.HMask = am, hm
		}
	}
}

// TiltedSemiSync is the tilted proposal over the quadrivalent alphabet.
type TiltedSemiSync struct {
	Tilt
	Base charstring.SemiSyncParams
	th   charstring.SemiSyncThresholds
}

// TiltSemiSync builds the θ-tilted semi-synchronous proposal. Empty slots
// have walk increment 0, so their mass is scaled by 1/M(θ) only and their
// per-symbol LLR is log M(θ) — the telescoped llr = n·logM − θ·S formula
// holds unchanged with ⊥ counted in n and contributing 0 to S. θ = 0
// short-circuits to the base thresholds exactly as in TiltSync.
func TiltSemiSync(sp charstring.SemiSyncParams, theta float64) TiltedSemiSync {
	if theta == 0 {
		return TiltedSemiSync{Base: sp, th: sp.Thresholds()}
	}
	e, en := math.Exp(theta), math.Exp(-theta)
	m := sp.PEmpty + sp.PA*e + (sp.Ph+sp.PH)*en
	return TiltedSemiSync{
		Tilt: Tilt{Theta: theta, LogM: math.Log(m)},
		Base: sp,
		th:   charstring.NewSemiSyncThresholds(sp.PEmpty/m, sp.PA*e/m, sp.Ph*en/m),
	}
}

// Sampler returns the proposal sampler with slot-s leader conditioning:
// an empty draw at slot cond is promoted to uniquely honest, matching
// mc.ConditionedSemiSyncSampler. Slots ≤ skip draw from the base law
// (pair with the same skip on the verdict); the estimators set
// skip = cond = s so the conditioned slot and everything before it stay
// on the true law and carry no LLR. cond = 0 disables conditioning.
func (t TiltedSemiSync) Sampler(skip, cond int) runner.SymbolSampler {
	tilted := t.th
	base := t.Base.Thresholds()
	return func(rng *runner.SM64, slot int) charstring.Symbol {
		var sym charstring.Symbol
		if slot <= skip {
			sym = base.Symbol(rng.Uint64())
		} else {
			sym = tilted.Symbol(rng.Uint64())
		}
		if slot == cond && sym == charstring.Empty {
			return charstring.UniqueHonest
		}
		return sym
	}
}

// BlockSampler returns the proposal's block sampler with slot-cond leader
// conditioning — the block twin of Sampler(skip, cond), drawing identical
// symbol streams. The conditioning patch rewrites the filled block's
// symbol and masks in place, exactly like mc.BlockConditionedSemiSyncSampler.
func (t TiltedSemiSync) BlockSampler(skip, cond int) runner.BlockSampler {
	tilted := t.th
	base := t.Base.Thresholds()
	return func(rng *runner.SM64, basePos int, blk *runner.Block) {
		rng.Fill(&blk.Raw)
		switch {
		case basePos >= skip:
			blk.AMask, blk.HMask, blk.EMask = tilted.ClassifyBlock(&blk.Raw, &blk.Syms)
		case basePos+runner.BlockSize <= skip:
			blk.AMask, blk.HMask, blk.EMask = base.ClassifyBlock(&blk.Raw, &blk.Syms)
		default:
			cut := skip - basePos
			var am, hm, em uint64
			for i := 0; i < runner.BlockSize; i++ {
				th := tilted
				if i < cut {
					th = base
				}
				sym := th.Symbol(blk.Raw[i])
				blk.Syms[i] = sym
				switch sym {
				case charstring.Adversarial:
					am |= 1 << uint(i)
				case charstring.UniqueHonest:
					hm |= 1 << uint(i)
				case charstring.Empty:
					em |= 1 << uint(i)
				}
			}
			blk.AMask, blk.HMask, blk.EMask = am, hm, em
		}
		if i := cond - basePos - 1; i >= 0 && i < runner.BlockSize && blk.Syms[i] == charstring.Empty {
			blk.Syms[i] = charstring.UniqueHonest
			blk.EMask &^= 1 << uint(i)
			blk.HMask |= 1 << uint(i)
		}
	}
}

// TiltedVerdict fuses a likelihood-ratio accumulator onto an unweighted
// StreamVerdict, turning it into a runner.WeightedStreamVerdict: two
// integer counters per Feed (tilted symbols seen, their walk sum) and one
// Exp at Finish, so the zero-allocation property of the fused loop is
// preserved. Symbols with index ≤ Skip are drawn from the base law by the
// paired Sampler and are excluded from the LLR.
//
// The θ = 0 wrapper is exactly the PR 3 path: the sampler is the base
// threshold table, the LLR is identically zero and every weight is
// Exp(0) = 1, so the weighted estimate's P equals the unweighted
// RunStreamBlocks estimate bit for bit (TestUnitTiltBitIdentical pins this).
type TiltedVerdict struct {
	Inner runner.StreamVerdict
	Tilt  Tilt
	Skip  int

	t, n, s int
}

// Begin implements runner.WeightedStreamVerdict.
func (v *TiltedVerdict) Begin(*runner.SM64) {
	v.t, v.n, v.s = 0, 0, 0
	v.Inner.Reset()
}

// Feed implements runner.WeightedStreamVerdict.
func (v *TiltedVerdict) Feed(sym charstring.Symbol) bool {
	v.t++
	if v.t > v.Skip {
		v.n++
		v.s += sym.Walk()
	}
	return v.Inner.Feed(sym)
}

// Finish implements runner.WeightedStreamVerdict.
func (v *TiltedVerdict) Finish() (bool, float64, error) {
	ok, err := v.Inner.Finish()
	return ok, math.Exp(v.Tilt.LLR(v.n, v.s)), err
}

// FeedBlock implements runner.WeightedBlockVerdict, for Inner verdicts
// that implement runner.BlockVerdict (all streaming mc verdicts do). The
// inner verdict consumes the block first; the LLR counters then batch over
// exactly the consumed, post-Skip symbols via two popcounts — the walk sum
// of a symbol range is 2·|A| + |⊥| − |range|. Because the inner FeedBlock
// reports the exact scalar decision index, the counters cover precisely
// the symbols the scalar Feed loop would have seen, deciding symbol
// included, and the weight is bit-identical to the scalar path's.
func (v *TiltedVerdict) FeedBlock(blk *runner.Block, n int) int {
	d := v.Inner.(runner.BlockVerdict).FeedBlock(blk, n)
	consumed := n
	if d > 0 {
		consumed = d
	}
	start := 0
	if v.t < v.Skip {
		start = min(v.Skip-v.t, consumed)
	}
	if act := consumed - start; act > 0 {
		m := runner.BlockMask(consumed) &^ runner.BlockMask(start)
		popA := bits.OnesCount64(blk.AMask & m)
		popE := bits.OnesCount64(blk.EMask & m)
		v.n += act
		v.s += 2*popA + popE - act
	}
	v.t += consumed
	return d
}

// marginTiltState is the margin-conditioned tilted proposal for the
// stationary settlement event — the deep-tail workhorse behind
// SettlementTilted. Instead of tilting the raw symbol frequencies it
// tilts the margin increment: the proposal law in state (ρ, µ) is
//
//	q(σ | ρ, µ) = p(σ)·e^{θ·Δµ(ρ,µ,σ)} / M_class(θ),
//
// the exponential-family projection of the Doob h-transform under the
// approximate harmonic function h(ρ, µ) ≈ e^{θµ}. The (ρ, µ) recurrence
// of Theorem 5 has exactly three boundary classes, so the proposal is
// three static raw-uint64 threshold tables (charstring.Thresholds) chosen
// per step by two integer compares:
//
//	class a, µ ≠ 0:         Δµ = +1 (A), −1 (h, H)
//	class b, µ = 0, ρ > 0:  Δµ = +1 (A),  0 (h, H)   — the sticky boundary
//	class c, µ = 0, ρ = 0:  Δµ = +1 (A), −1 (h), 0 (H)
//
// The per-step LLR log M_class − θ·Δµ telescopes into three class
// counters plus θ·(µ_end − µ_0): five integers accumulate in the fused
// loop and one Exp runs at Finish, preserving the zero-allocation
// contract. The initial reach draws from the conjugate geometric
// βq = β·e^{θr}, whose LLR cancels the θ·µ_0 term exactly at θr = θ; the
// tail is pooled at k+1 exactly as in the DP (certain hits, exact pooled
// weight). Compared with the plain frequency tilt this keeps hit weights
// near e^{−θ·µ_k} ≤ 1 instead of exposing the e^{θ·(stick count)} tail,
// which is what makes ESS ≥ 1000 reachable at 1e-12 probabilities.
// drawStationaryReach draws an initial reach from the geometric law with
// the given ratio by inverse CDF, capped at limit+1 with the whole tail
// pooled into the final value — the DP's exactness-preserving saturation
// (a reach ≥ k+1 ends with µ_k ≥ 1 whatever the symbols do, so pooled
// draws behave identically and carry one aggregate weight). It is the one
// copy of this delicate mapping shared by the tilted and splitting
// settlement estimators, which must target the same stationary law for
// cmd/rare's cross-check to mean anything.
func drawStationaryReach(rng *runner.SM64, ratio float64, limit int) (j int, pooled bool) {
	u := float64(rng.Uint64()>>11) * 0x1p-53 // uniform in [0, 1)
	j = int(math.Log1p(-u) / math.Log(ratio))
	if j < 0 {
		j = 0
	}
	if j > limit {
		return limit + 1, true
	}
	return j, false
}

// maxMix bounds the defensive-mixture component count.
const maxMix = 3

type marginTiltState struct {
	k    int
	nmix int

	theta         [maxMix]float64
	lMa, lMb, lMc [maxMix]float64               // per-component class log-normalizers
	thA, thB, thC [maxMix]charstring.Thresholds // per-component class tables

	beta, betaQ       float64
	logRatio, logHead float64 // reach-proposal LLR constants

	stratum          int
	t, rho, mu, mu0  int
	na, nb, nc       int
	llr0             float64
	decided, verdict bool
}

// newMarginTiltState builds the proposal for the symbol-tilt mixture
// thetas (1 to maxMix components) and reach tilt reachTheta (the common
// reach proposal ratio is β·e^{reachTheta}, clamped below 1). A single
// component is the pure tilted proposal; several components form the
// defensive mixture q = (1/n)Σ q_θi with every sample weighted against
// the full mixture density — see Finish.
func newMarginTiltState(p charstring.Params, k int, thetas []float64, reachTheta float64) *marginTiltState {
	if len(thetas) == 0 || len(thetas) > maxMix {
		panic(fmt.Sprintf("rare: mixture size %d outside [1, %d]", len(thetas), maxMix))
	}
	ph, pH, pA := p.Probabilities()
	st := &marginTiltState{k: k, nmix: len(thetas), beta: p.Beta()}
	for i, theta := range thetas {
		e, en := math.Exp(theta), math.Exp(-theta)
		ma := pA*e + (ph+pH)*en
		mb := pA*e + ph + pH
		mc := pA*e + ph*en + pH
		st.theta[i] = theta
		st.thA[i] = charstring.NewThresholds(pA*e/ma, ph*en/ma)
		st.thB[i] = charstring.NewThresholds(pA*e/mb, ph/mb)
		st.thC[i] = charstring.NewThresholds(pA*e/mc, ph*en/mc)
		st.lMa[i], st.lMb[i], st.lMc[i] = math.Log(ma), math.Log(mb), math.Log(mc)
	}
	bq := st.beta * math.Exp(reachTheta)
	if bq >= 1 {
		bq = (1 + st.beta) / 2
	}
	st.betaQ = bq
	st.logRatio = math.Log(st.beta) - math.Log(bq)
	st.logHead = math.Log(1-st.beta) - math.Log(1-bq)
	return st
}

// Begin implements runner.WeightedState: a uniform mixture-component
// draw, then the conjugate geometric reach draw with pooled tail.
func (st *marginTiltState) Begin(rng *runner.SM64) {
	st.stratum = 0
	if st.nmix > 1 {
		st.stratum = int(rng.Uint64() % uint64(st.nmix))
	}
	j, pooled := drawStationaryReach(rng, st.betaQ, st.k)
	if pooled {
		// Weight by Pr[X∞ ≥ k+1]/Pr[proposal ≥ k+1].
		st.llr0 = float64(st.k+1) * st.logRatio
	} else {
		st.llr0 = st.logHead + float64(j)*st.logRatio
	}
	st.t, st.rho, st.mu, st.mu0 = 0, j, j, j
	st.na, st.nb, st.nc = 0, 0, 0
	st.decided, st.verdict = false, false
}

// Step implements runner.WeightedState: one class dispatch, one raw draw,
// one (ρ, µ) step, the E3 early exits.
func (st *marginTiltState) Step(rng *runner.SM64) bool {
	var th charstring.Thresholds
	switch {
	case st.mu != 0:
		th = st.thA[st.stratum]
		st.na++
	case st.rho > 0:
		th = st.thB[st.stratum]
		st.nb++
	default:
		th = st.thC[st.stratum]
		st.nc++
	}
	st.rho, st.mu = margin.StepMu(st.rho, st.mu, th.Symbol(rng.Uint64()))
	st.t++
	rem := st.k - st.t
	if st.mu-rem >= 0 {
		st.decided, st.verdict = true, true
		return true
	}
	if st.mu+rem < 0 {
		st.decided, st.verdict = true, false
		return true
	}
	return st.t >= st.k
}

// Finish implements runner.WeightedState. The weight is the likelihood
// ratio against the full mixture density, not the drawn component's:
// every component's symbol-LLR is a function of the same five integers
// (the class counts and the margin displacement), so with
// llrSym_i = na·lMa_i + nb·lMb_i + nc·lMc_i − θ_i·(µ−µ0) the mixture
// weight is
//
//	w = e^{llr0} · n / Σ_i e^{−llrSym_i}  ≤  n · e^{llr0 + min_i llrSym_i}.
//
// The bound is the defensive-mixture guarantee: a trajectory whose weight
// explodes under one tilt is capped by its weight under the most
// conservative component, which is what keeps the deep-tail interval
// honest where a single tilt's undersampled heavy tail reads low with an
// overconfident standard error.
func (st *marginTiltState) Finish() (bool, float64, error) {
	hit := st.mu >= 0
	if st.decided {
		hit = st.verdict
	}
	if !hit {
		return false, 0, nil
	}
	na, nb, nc := float64(st.na), float64(st.nb), float64(st.nc)
	dmu := float64(st.mu - st.mu0)
	denom := 0.0
	for i := 0; i < st.nmix; i++ {
		denom += math.Exp(-(na*st.lMa[i] + nb*st.lMb[i] + nc*st.lMc[i] - st.theta[i]*dmu))
	}
	return true, math.Exp(st.llr0) * float64(st.nmix) / denom, nil
}
