package chainsim

import (
	"math/rand"
	"testing"

	"multihonest/internal/adversary"
	"multihonest/internal/charstring"
	"multihonest/internal/fork"
	"multihonest/internal/margin"
)

// forkFromBlocks reconstructs an abstract fork from the realized block
// tree of an execution: every non-genesis block becomes a vertex labeled
// with its slot under its parent's vertex. AllBlocks lists parents before
// children (blocks are recorded at minting), so one pass suffices.
func forkFromBlocks(t *testing.T, sim *Sim, w charstring.String) *fork.Fork {
	t.Helper()
	f := fork.New(w)
	vert := map[Hash]*fork.Vertex{sim.Genesis().Hash(): f.Root()}
	for _, b := range sim.AllBlocks() {
		if b == sim.Genesis() {
			continue
		}
		parent, ok := vert[b.Parent]
		if !ok {
			t.Fatalf("block at slot %d has unknown parent", b.Slot)
		}
		v, err := f.AddVertex(parent, b.Slot)
		if err != nil {
			t.Fatalf("block at slot %d: %v", b.Slot, err)
		}
		vert[b.Hash()] = v
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("realized block tree is not a valid fork: %v", err)
	}
	return f
}

// TestMarginStrategyRealizesAStarMargins is the E7 cross-check pinning
// the equivalence the chainsim and adversary packages claim but no test
// held: on randomized trivalent strings, the block tree the
// margin-optimal attacker actually realizes carries exactly the relative
// margins of adversary.AStar's canonical fork — µ_x(F_blocks) = µ_x(w)
// for every decomposition point x simultaneously, and the realized reach
// matches ρ(w).
//
// The containment sandwich makes the equality sharp: the realized tree
// is a valid fork for w, so its margins are at most µ_x(w) (Theorem 5
// optimality), and it embeds every vertex of the mirrored canonical
// fork, so they are at least the canonical fork's — which Theorem 6
// says equal µ_x(w). Any deviation in either direction is a real bug in
// the strategy's block materialization.
func TestMarginStrategyRealizesAStarMargins(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 40; trial++ {
		p := charstring.MustParams(0.1+0.6*rng.Float64(), 0.1+0.3*rng.Float64())
		horizon := 30 + rng.Intn(40)
		strat := NewMarginStrategy()
		sim := bernoulliSim(t, p, horizon, AdversarialTies, strat, int64(1000+trial))
		if err := sim.Run(nil); err != nil {
			t.Fatal(err)
		}
		if err := strat.Err(); err != nil {
			t.Fatalf("trial %d: strategy error: %v", trial, err)
		}
		w := sim.Characteristic()
		realized := forkFromBlocks(t, sim, w)

		canon, err := adversary.Build(w)
		if err != nil {
			t.Fatalf("trial %d: A*: %v", trial, err)
		}
		canonMargins, err := canon.RelativeMarginsAllPrefixes()
		if err != nil {
			t.Fatalf("trial %d: canonical margins: %v", trial, err)
		}
		realMargins, err := realized.RelativeMarginsAllPrefixes()
		if err != nil {
			t.Fatalf("trial %d (w=%v): realized margins: %v", trial, w, err)
		}
		for x := 0; x <= len(w); x++ {
			want := margin.RelativeMargin(w, x)
			if canonMargins[x] != want {
				t.Fatalf("trial %d x=%d (w=%v): canonical margin %d != recurrence %d",
					trial, x, w, canonMargins[x], want)
			}
			if realMargins[x] != want {
				t.Fatalf("trial %d x=%d (w=%v): realized block-tree margin %d != A* margin %d",
					trial, x, w, realMargins[x], want)
			}
		}
		if rho, err := realized.MaxReach(); err != nil || rho != margin.Rho(w) {
			t.Fatalf("trial %d (w=%v): realized reach %d (err %v) != ρ(w) %d",
				trial, w, rho, err, margin.Rho(w))
		}
	}
}
