package chainsim

import (
	"encoding/binary"
	"fmt"

	"multihonest/internal/adversary"
	"multihonest/internal/charstring"
	"multihonest/internal/fork"
)

// NullStrategy is the do-nothing adversary: adversarial leaders behave
// honestly (extend the longest public chain and broadcast immediately).
// Embed it to implement only selected hooks.
type NullStrategy struct{}

// Name implements Strategy.
func (NullStrategy) Name() string { return "null" }

// OnSlotStart implements Strategy.
func (NullStrategy) OnSlotStart(*Sim, int) {}

// OnHonestBlock implements Strategy.
func (NullStrategy) OnHonestBlock(*Sim, *Block) {}

// OnAdversarialSlot implements Strategy: behave like an honest leader.
func (NullStrategy) OnAdversarialSlot(sim *Sim, slot int, leaders []int) {
	// Extend the longest chain adopted by any honest node (the adversary
	// sees everything; the longest public chain is at least that).
	best := sim.Genesis()
	for _, n := range sim.Nodes() {
		if n.Tip().Depth() > best.Depth() {
			best = n.Tip()
		}
	}
	b := sim.MintAdversarial(leaders[0], slot, best, nil)
	sim.Broadcast(b, 0)
}

// OnSlotEnd implements Strategy.
func (NullStrategy) OnSlotEnd(*Sim, int) {}

var _ Strategy = NullStrategy{}

// PrivateChainStrategy is the classic double-spend attacker: from the
// target slot onward it grows a private fork on every adversarial slot and
// never helps the public chain; a settlement violation occurs when the
// private fork catches up with the public one.
type PrivateChainStrategy struct {
	NullStrategy
	Target int // attack forks from the last public block before Target

	anchor  *Block
	private *Block
	counter uint64
}

// Name implements Strategy.
func (p *PrivateChainStrategy) Name() string { return "private-chain" }

// OnSlotStart anchors the private fork just before the target slot.
func (p *PrivateChainStrategy) OnSlotStart(sim *Sim, slot int) {
	if slot != p.Target {
		return
	}
	best := sim.Genesis()
	for _, n := range sim.Nodes() {
		if n.Tip().Depth() > best.Depth() {
			best = n.Tip()
		}
	}
	p.anchor = best
	p.private = best
}

// OnAdversarialSlot grows the private fork (before the target it plays
// honestly, like NullStrategy).
func (p *PrivateChainStrategy) OnAdversarialSlot(sim *Sim, slot int, leaders []int) {
	if p.private == nil {
		p.NullStrategy.OnAdversarialSlot(sim, slot, leaders)
		return
	}
	var payload [8]byte
	p.counter++
	binary.BigEndian.PutUint64(payload[:], p.counter)
	p.private = sim.MintAdversarial(leaders[0], slot, p.private, payload[:])
}

// Succeeded reports whether the private fork currently matches the best
// honest chain in length while diverging prior to the target slot: the
// adversary can present it and unsettle the target.
func (p *PrivateChainStrategy) Succeeded(sim *Sim) bool {
	if p.private == nil {
		return false
	}
	best := 0
	for _, n := range sim.Nodes() {
		best = max(best, n.Tip().Depth())
	}
	return p.private.Depth() >= best && p.private != p.anchor
}

var _ Strategy = (*PrivateChainStrategy)(nil)

// MarginStrategy is the full-information optimal attacker of experiment
// E7: it mirrors the abstract adversary A* in block space. At every honest
// slot it materializes A*'s planned conservative extension as concrete
// signed adversarial blocks, rushes that chain to the slot's honest
// leader(s), and thereby steers each honest block onto the tine A*
// prescribes. The realized block tree is then isomorphic to A*'s canonical
// fork, so a settlement violation is presentable exactly when the relative
// margin is non-negative — the event whose probability the Table 1 DP
// computes.
//
// MarginStrategy requires AdversarialTies (axiom A0: the rushing adversary
// resolves longest-chain ties) and a synchronous schedule without empty
// slots.
type MarginStrategy struct {
	NullStrategy

	w         charstring.String
	astar     *adversary.AStar
	bind      map[int]*Block // fork vertex ID → realized block
	plan      []adversary.Extension
	padTips   []*Block       // per planned extension, the delivered pad tip
	padChains [][]*Block     // per planned extension, the minted pad blocks in label order
	assign    map[int]int    // honest leader ID → extension index for the slot
	hblocks   map[int]*Block // extension index → honest block created
	counter   uint64
	err       error
}

// NewMarginStrategy builds the attacker for a synchronous schedule.
func NewMarginStrategy() *MarginStrategy {
	return &MarginStrategy{astar: adversary.NewAStar(), bind: map[int]*Block{}}
}

// Name implements Strategy.
func (m *MarginStrategy) Name() string { return "margin-optimal" }

// OnAdversarialSlot banks the slot: A* spends adversarial slots lazily as
// pad material for later conservative extensions, so no block is published
// now (overriding the embedded NullStrategy's honest behavior).
func (m *MarginStrategy) OnAdversarialSlot(*Sim, int, []int) {}

// Err returns the first internal error the strategy encountered; the
// engine has no error channel for strategies, so callers check it after
// Run.
func (m *MarginStrategy) Err() error { return m.err }

func (m *MarginStrategy) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// OnSlotStart plans the A* extensions for an honest slot and rushes the
// pad chains to the slot's honest leaders.
func (m *MarginStrategy) OnSlotStart(sim *Sim, slot int) {
	if m.err != nil {
		return
	}
	if m.bind[0] == nil {
		m.bind[0] = sim.Genesis() // root vertex ↦ genesis
	}
	w := sim.Characteristic()
	if slot == 1 && !w.Sync() {
		m.fail(fmt.Errorf("chainsim: margin strategy requires a synchronous schedule"))
		return
	}
	m.w = w
	sym := w.At(slot)
	m.plan, m.padTips, m.padChains, m.assign, m.hblocks = nil, nil, nil, map[int]int{}, map[int]*Block{}
	if !sym.Honest() {
		return
	}
	plan, err := m.astar.Plan(sym)
	if err != nil {
		m.fail(err)
		return
	}
	m.plan = plan
	var honestLeaders []int
	for _, id := range sim.Schedule().Leaders[slot-1] {
		if sim.Schedule().Parties[id].Honest {
			honestLeaders = append(honestLeaders, id)
		}
	}
	if len(plan) > len(honestLeaders) {
		m.fail(fmt.Errorf("chainsim: slot %d plans %d extensions but has %d honest leaders", slot, len(plan), len(honestLeaders)))
		return
	}
	for i, ext := range plan {
		chain := m.materializePadChain(sim, m.bind[ext.Target.ID()], ext.PadLabels)
		if m.err != nil {
			return
		}
		tip := m.bind[ext.Target.ID()]
		if len(chain) > 0 {
			tip = chain[len(chain)-1]
		}
		m.padTips = append(m.padTips, tip)
		m.padChains = append(m.padChains, chain)
		leaderID := honestLeaders[i]
		m.assign[leaderID] = i
		if err := sim.DeliverNow(leaderID, tip); err != nil {
			m.fail(err)
			return
		}
		if err := sim.ForceAdopt(leaderID, tip); err != nil {
			m.fail(err)
			return
		}
	}
	// Remaining honest leaders of a multiply honest slot follow the first
	// extension's tine (extra sibling vertices are harmless to the fork).
	for _, id := range honestLeaders[len(plan):] {
		if len(m.padTips) == 0 {
			break
		}
		if err := sim.DeliverNow(id, m.padTips[0]); err != nil {
			m.fail(err)
			return
		}
		if err := sim.ForceAdopt(id, m.padTips[0]); err != nil {
			m.fail(err)
			return
		}
	}
}

// materializePadChain mints the adversarial pad blocks for the given labels
// on top of parent, returning them in label order (empty for no labels).
func (m *MarginStrategy) materializePadChain(sim *Sim, parent *Block, labels []int) []*Block {
	cur := parent
	out := make([]*Block, 0, len(labels))
	for _, l := range labels {
		party := adversarialLeader(sim, l)
		if party < 0 {
			m.fail(fmt.Errorf("chainsim: no adversarial leader at pad slot %d", l))
			return nil
		}
		var payload [8]byte
		m.counter++
		binary.BigEndian.PutUint64(payload[:], m.counter)
		cur = sim.MintAdversarial(party, l, cur, payload[:])
		out = append(out, cur)
	}
	return out
}

// materializePad is materializePadChain returning only the tip.
func (m *MarginStrategy) materializePad(sim *Sim, parent *Block, labels []int) *Block {
	chain := m.materializePadChain(sim, parent, labels)
	if len(chain) == 0 {
		return parent
	}
	return chain[len(chain)-1]
}

func adversarialLeader(sim *Sim, slot int) int {
	for _, id := range sim.Schedule().Leaders[slot-1] {
		if !sim.Schedule().Parties[id].Honest {
			return id
		}
	}
	return -1
}

// OnHonestBlock records which honest block realizes which planned
// extension.
func (m *MarginStrategy) OnHonestBlock(sim *Sim, b *Block) {
	if m.err != nil {
		return
	}
	if i, ok := m.assign[b.Issuer]; ok {
		if _, dup := m.hblocks[i]; !dup {
			m.hblocks[i] = b
		}
	}
}

// OnSlotEnd applies the planned step to the abstract fork and binds the
// new vertices to the realized blocks.
func (m *MarginStrategy) OnSlotEnd(sim *Sim, slot int) {
	if m.err != nil {
		return
	}
	sym := m.w.At(slot)
	before := m.astar.Fork().Len()
	if err := m.astar.Step(sym); err != nil {
		m.fail(err)
		return
	}
	if !sym.Honest() {
		return
	}
	vs := m.astar.Fork().Vertices()[before:]
	vi := 0
	for i, ext := range m.plan {
		// Pad vertices first, in label order, then the honest vertex; the
		// blocks were recorded at minting time (structural lookup would be
		// ambiguous: distinct tines may reuse the same adversarial labels).
		for j := range ext.PadLabels {
			v := vs[vi]
			vi++
			b := m.padChains[i][j]
			if b.Slot != v.Label() {
				m.fail(fmt.Errorf("chainsim: pad block slot %d does not match vertex label %d", b.Slot, v.Label()))
				return
			}
			m.bind[v.ID()] = b
		}
		hv := vs[vi]
		vi++
		hb := m.hblocks[i]
		if hb == nil {
			m.fail(fmt.Errorf("chainsim: no honest block realized extension %d at slot %d", i, slot))
			return
		}
		if hb.ParentBlock() != m.padTips[i] {
			want := m.padTips[i].Hash()
			m.fail(fmt.Errorf("chainsim: honest leader extended %x, expected pad tip %x at slot %d",
				hb.Parent[:4], want[:4], slot))
			return
		}
		m.bind[hv.ID()] = hb
	}
}

// ViolationPresentable reports whether, at the current execution point,
// the attacker can present two maximum-length viable chains diverging
// prior to the target slot, and materializes them as real signed chains
// when it can (delivering one to each of two honest nodes when their IDs
// are supplied). It mirrors Fact 6's padding construction in block space.
func (m *MarginStrategy) ViolationPresentable(sim *Sim, target int) (bool, error) {
	if m.err != nil {
		return false, m.err
	}
	f := m.astar.Fork()
	rs, err := f.Reaches()
	if err != nil {
		return false, err
	}
	mu, err := f.RelativeMargin(target - 1)
	if err != nil {
		return false, err
	}
	if mu < 0 {
		return false, nil
	}
	t1, t2 := witnessPairNonNegative(f, rs, target-1)
	if t1 == nil {
		return false, fmt.Errorf("chainsim: µ ≥ 0 without witness pair")
	}
	height := f.Height()
	var c1, c2 *Block
	if t1 != t2 {
		c1 = m.padBlocks(sim, t1, height-t1.Depth())
		c2 = m.padBlocks(sim, t2, height-t2.Depth())
	} else {
		need := max(height-t1.Depth(), 1)
		c1 = m.padBlocks(sim, t1, need)
		c2 = m.padBlocks(sim, t1, need)
	}
	if m.err != nil {
		return false, m.err
	}
	if c1.Depth() != c2.Depth() || !DisjointBefore(c1, c2, target) {
		return false, fmt.Errorf("chainsim: presented chains malformed (depths %d/%d)", c1.Depth(), c2.Depth())
	}
	if c1.Depth() < sim.MaxHonestDepth(sim.Slot()) {
		return false, fmt.Errorf("chainsim: presented chains not viable")
	}
	// Split the honest nodes into two camps and show each camp one chain.
	nodes := sim.Nodes()
	for i, n := range nodes {
		c := c1
		if i%2 == 1 {
			c = c2
		}
		if err := sim.DeliverNow(n.ID, c); err != nil {
			return false, err
		}
		if err := sim.ForceAdopt(n.ID, c); err != nil {
			return false, err
		}
	}
	return true, nil
}

// padBlocks mints an adversarial pad of the given length on the block
// bound to vertex u, using the earliest adversarial slots after ℓ(u).
func (m *MarginStrategy) padBlocks(sim *Sim, u *fork.Vertex, need int) *Block {
	base := m.bind[u.ID()]
	if base == nil {
		m.fail(fmt.Errorf("chainsim: unbound vertex %d", u.ID()))
		return nil
	}
	if need == 0 {
		return base
	}
	var labels []int
	for l := u.Label() + 1; l <= len(m.w) && len(labels) < need; l++ {
		if m.w[l-1] == charstring.Adversarial {
			labels = append(labels, l)
		}
	}
	if len(labels) < need {
		m.fail(fmt.Errorf("chainsim: insufficient reserve to pad vertex %d by %d", u.ID(), need))
		return nil
	}
	return m.materializePad(sim, base, labels)
}

// witnessPairNonNegative finds a tine pair, edge-disjoint past xlen, with
// both reaches ≥ 0 (preferring distinct tines).
func witnessPairNonNegative(f *fork.Fork, rs []fork.Reach, xlen int) (*fork.Vertex, *fork.Vertex) {
	vs := f.Vertices()
	for i, u := range vs {
		if rs[u.ID()].Reach < 0 {
			continue
		}
		for _, v := range vs[i+1:] {
			if rs[v.ID()].Reach < 0 {
				continue
			}
			if fork.LCA(u, v).Label() <= xlen {
				return u, v
			}
		}
	}
	for _, u := range vs {
		if rs[u.ID()].Reach >= 0 && u.Label() <= xlen {
			return u, u
		}
	}
	return nil, nil
}

var _ Strategy = (*MarginStrategy)(nil)
