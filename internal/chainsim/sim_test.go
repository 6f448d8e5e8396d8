package chainsim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
	"multihonest/internal/leader"
	"multihonest/internal/margin"
)

func bernoulliSim(t *testing.T, p charstring.Params, horizon int, rule TieBreak, strat Strategy, seed int64) *Sim {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sched := leader.BernoulliSchedule(p, horizon, rng)
	sim, err := NewSim(Config{Schedule: sched, Rule: rule, Strategy: strat, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestNullStrategyLiveness: with everyone honest-behaved the chain grows by
// one block per non-empty slot and all nodes agree under consistent ties.
func TestNullStrategyLiveness(t *testing.T) {
	p := charstring.MustParams(0.4, 0.3)
	sim := bernoulliSim(t, p, 200, ConsistentTies, NullStrategy{}, 1)
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	tips := sim.Nodes()
	for _, n := range tips[1:] {
		if n.Tip() != tips[0].Tip() {
			t.Fatalf("honest nodes disagree under null strategy: %d vs %d", n.Tip().Depth(), tips[0].Tip().Depth())
		}
	}
	// Every slot has a leader in the Bernoulli schedule, and under the null
	// strategy every slot appends at least one block; concurrent honest
	// leaders can tie, so depth ≥ slots where a unique extension happened.
	if d := tips[0].Tip().Depth(); d < 150 {
		t.Fatalf("chain too short: %d after 200 slots", d)
	}
	if honestTipsDiverged(sim, 100) {
		t.Fatal("unexpected divergence under null strategy")
	}
}

// TestMarginStrategyMatchesMarginRecurrence is experiment E7's core claim:
// the protocol-level margin attacker can present a settlement violation for
// slot s at horizon k exactly when the abstract relative margin of the
// realized characteristic string is non-negative — per sample, not just on
// average.
func TestMarginStrategyMatchesMarginRecurrence(t *testing.T) {
	p := charstring.MustParams(0.1, 0.2)
	const s, k = 5, 40
	agreeViolated, agreeSettled := 0, 0
	for trial := 0; trial < 60; trial++ {
		strat := NewMarginStrategy()
		sim := bernoulliSim(t, p, s-1+k, AdversarialTies, strat, int64(trial))
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		if err := strat.Err(); err != nil {
			t.Fatalf("trial %d: strategy error: %v", trial, err)
		}
		w := sim.Characteristic()
		want := violationAtHorizon(w, s, k)
		got, err := strat.ViolationPresentable(sim, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d (w=%v): presentable=%v, margin verdict=%v", trial, w, got, want)
		}
		if got {
			agreeViolated++
			// The presented chains were adopted: honest nodes now disagree
			// about slot s, and the global block fork witnesses it.
			if !honestTipsDiverged(sim, s) {
				t.Fatalf("trial %d: violation presented but honest tips agree", trial)
			}
			if !sim.SettlementViolated(s) {
				t.Fatalf("trial %d: violation presented but fork check disagrees", trial)
			}
		} else {
			agreeSettled++
		}
	}
	if agreeViolated == 0 || agreeSettled == 0 {
		t.Fatalf("degenerate coverage: violated=%d settled=%d", agreeViolated, agreeSettled)
	}
}

// TestMarginStrategyForkIsCanonical: the attacker's mirrored fork must stay
// canonical against the realized string, and every vertex must be bound to
// a real block with matching slot and depth.
func TestMarginStrategyForkIsCanonical(t *testing.T) {
	p := charstring.MustParams(0.15, 0.1)
	strat := NewMarginStrategy()
	sim := bernoulliSim(t, p, 80, AdversarialTies, strat, 99)
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	if err := strat.Err(); err != nil {
		t.Fatal(err)
	}
	f := strat.astar.Fork()
	if err := f.Validate(); err != nil {
		t.Fatalf("mirrored fork invalid: %v", err)
	}
	rho, err := f.MaxReach()
	if err != nil {
		t.Fatal(err)
	}
	if want := margin.Rho(sim.Characteristic()); rho != want {
		t.Fatalf("mirrored fork ρ=%d, want %d", rho, want)
	}
	all, err := f.RelativeMarginsAllPrefixes()
	if err != nil {
		t.Fatal(err)
	}
	w := sim.Characteristic()
	for xlen := 0; xlen <= len(w); xlen += 7 {
		if want := margin.RelativeMargin(w, xlen); all[xlen] != want {
			t.Fatalf("mirrored fork margin at |x|=%d: %d, want %d", xlen, all[xlen], want)
		}
	}
	for _, v := range f.Vertices() {
		b := strat.bind[v.ID()]
		if b == nil {
			t.Fatalf("vertex %d (label %d) unbound", v.ID(), v.Label())
		}
		if b.Slot != v.Label() {
			t.Fatalf("vertex label %d bound to block slot %d", v.Label(), b.Slot)
		}
		if b.Depth() != v.Depth() {
			t.Fatalf("vertex %d depth %d vs block depth %d", v.ID(), v.Depth(), b.Depth())
		}
	}
}

// TestPrivateChainWeakerThanMargin compares baseline and optimal attackers
// on identical schedules: the private-chain attacker never succeeds where
// the margin verdict says settlement holds, and succeeds less often
// overall.
func TestPrivateChainWeakerThanMargin(t *testing.T) {
	p := charstring.MustParams(0.05, 0.3) // weak honest advantage: attacks sometimes land
	const s, k = 3, 25
	pcWins, marginWins := 0, 0
	for trial := 0; trial < 80; trial++ {
		strat := &PrivateChainStrategy{Target: s}
		sim := bernoulliSim(t, p, s-1+k, AdversarialTies, strat, int64(1000+trial))
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		w := sim.Characteristic()
		abstract := violationAtHorizon(w, s, k)
		if strat.Succeeded(sim) {
			pcWins++
			if !abstract {
				t.Fatalf("trial %d: private chain succeeded where margin says settled (w=%v)", trial, w)
			}
		}
		if abstract {
			marginWins++
		}
	}
	if pcWins > marginWins {
		t.Fatalf("baseline beat the optimum: %d > %d", pcWins, marginWins)
	}
	if marginWins == 0 {
		t.Fatal("degenerate: margin attacker never wins at these parameters")
	}
}

// TestValidationRejects exercises the failure-injection paths: nodes refuse
// blocks with bad signatures, ineligible issuers, wrong slot order, and
// unknown parents.
func TestValidationRejects(t *testing.T) {
	p := charstring.MustParams(0.3, 0.5)
	rng := rand.New(rand.NewSource(5))
	sched := leader.BernoulliSchedule(p, 50, rng)
	keys := NewKeyring(len(sched.Parties), 7)
	sim, err := NewSim(Config{Schedule: sched, Keys: keys, Rule: ConsistentTies, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	n := sim.Nodes()[0]
	tip := n.Tip()

	// Find a slot where party 0 (adversarial) is NOT the leader.
	badSlot := 0
	for s := tip.Slot + 1; s <= 50; s++ {
		if !sched.Eligible(0, s) {
			badSlot = s
			break
		}
	}
	if badSlot > 0 && badSlot > tip.Slot {
		bad := keys.MakeBlock(0, badSlot, tip, nil)
		if err := n.Receive(bad, keys, sched); !errors.Is(err, ErrNotEligible) {
			t.Fatalf("ineligible issuer: got %v", err)
		}
	}

	// Tampered signature.
	forged := keys.MakeBlock(0, tip.Slot+1, tip, []byte("x"))
	forged.Sig[0] ^= 0xff
	if sched.Eligible(0, tip.Slot+1) {
		if err := n.Receive(forged, keys, sched); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("bad signature: got %v", err)
		}
	}

	// Slot order violation: reuse an ancestor's slot.
	anc := tip.ParentBlock()
	stale := keys.MakeBlock(0, anc.Slot, tip, nil)
	if err := n.Receive(stale, keys, sched); !errors.Is(err, ErrSlotOrder) {
		t.Fatalf("slot order: got %v", err)
	}

	// Unknown parent.
	orphanParent := keys.MakeBlock(0, tip.Slot+1, tip, []byte("unseen"))
	orphan := keys.MakeBlock(0, tip.Slot+2, orphanParent, nil)
	if err := n.Receive(orphan, keys, sched); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("unknown parent: got %v", err)
	}
}

// TestDeltaDelayCreatesMultiLeaderCollisions: with maximal delay Δ > 0 and
// frequent leaders, honest blocks land on stale tips, so the chain grows
// slower than one block per slot — the de-facto concurrency the paper's
// Δ-synchronous analysis treats.
func TestDeltaDelayCreatesMultiLeaderCollisions(t *testing.T) {
	p := charstring.MustParams(0.8, 0.9) // almost every slot uniquely honest
	const horizon = 300
	depths := map[int]int{}
	for _, delta := range []int{0, 4} {
		sim := bernoulliSim(t, p, horizon, ConsistentTies, &DelayStrategy{Delta: delta}, 3)
		sim.cfg.Delta = delta
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		best := 0
		for _, n := range sim.Nodes() {
			best = max(best, n.Tip().Depth())
		}
		depths[delta] = best
	}
	if depths[4] >= depths[0] {
		t.Fatalf("delay should slow growth: Δ=4 depth %d ≥ Δ=0 depth %d", depths[4], depths[0])
	}
}

func TestForceAdoptGuards(t *testing.T) {
	p := charstring.MustParams(0.3, 0.5)
	sim := bernoulliSim(t, p, 20, ConsistentTies, NullStrategy{}, 2)
	if err := sim.Run(nil); err != nil {
		t.Fatal(err)
	}
	n := sim.Nodes()[0]
	if err := sim.ForceAdopt(n.ID, n.Tip()); err == nil {
		t.Fatal("ForceAdopt must be rejected under consistent ties")
	}
}

// violationAtHorizon reports whether µ_x(y) ≥ 0 for the decomposition with
// |x| = s−1 and |y| = k, i.e. whether slot s incurs a k-settlement
// violation at exactly horizon k.
func violationAtHorizon(w charstring.String, s, k int) bool {
	return margin.RelativeMargin(w[:s-1+k], s-1) >= 0
}

// honestTipsDiverged reports whether two honest nodes currently hold
// adopted chains whose histories are disjoint before slot target — a
// realized consistency failure among honest parties.
func honestTipsDiverged(s *Sim, target int) bool {
	for i := 0; i < len(s.nodes); i++ {
		for j := i + 1; j < len(s.nodes); j++ {
			if DisjointBefore(s.nodes[i].Tip(), s.nodes[j].Tip(), target) {
				return true
			}
		}
	}
	return false
}

// DelayStrategy exercises the Δ-synchronous network: every honest block is
// delayed by the full Δ to every recipient, maximizing the chance that
// concurrent honest leaders build on stale tips. Adversarial leaders play
// honestly.
type DelayStrategy struct {
	NullStrategy
	Delta int
}

// Name implements Strategy.
func (d *DelayStrategy) Name() string { return fmt.Sprintf("max-delay(Δ=%d)", d.Delta) }

// OnHonestBlock implements Strategy: schedule delivery at the Δ bound.
func (d *DelayStrategy) OnHonestBlock(sim *Sim, b *Block) {
	sim.Broadcast(b, d.Delta)
}

var _ Strategy = (*DelayStrategy)(nil)
