// Package chainsim is an executable implementation of the longest-chain
// proof-of-stake protocol the paper analyses: hash-linked, ed25519-signed
// blocks, honest nodes applying the longest-chain rule, a slot-synchronous
// network with a rushing adversary (axiom A0) and optional Δ-bounded
// delays, and pluggable adversarial strategies — including a
// full-information margin-optimal attacker that realizes the abstract
// adversary A* with concrete signed blocks (experiment E7).
package chainsim

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Hash is a block identifier: SHA-256 over the block's signed content.
type Hash [32]byte

// Block is one element of a blockchain. Blocks are immutable after Seal.
type Block struct {
	Slot    int    // slot the block was issued in; 0 for genesis
	Issuer  int    // party ID; -1 for genesis
	Parent  Hash   // hash of the parent block
	Payload []byte // application data (opaque)
	Sig     []byte // ed25519 signature by the issuer over the content hash

	hash   Hash
	parent *Block // resolved parent pointer (nil for genesis)
	depth  int    // distance from genesis
}

// Hash returns the block identifier.
func (b *Block) Hash() Hash { return b.hash }

// ParentBlock returns the resolved parent, nil for genesis.
func (b *Block) ParentBlock() *Block { return b.parent }

// Depth returns the chain length from genesis to this block.
func (b *Block) Depth() int { return b.depth }

// content serializes the signed portion of the block.
func (b *Block) content() []byte {
	var buf bytes.Buffer
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(b.Slot))
	buf.Write(u64[:])
	binary.BigEndian.PutUint64(u64[:], uint64(int64(b.Issuer)))
	buf.Write(u64[:])
	buf.Write(b.Parent[:])
	buf.Write(b.Payload)
	return buf.Bytes()
}

// seal computes the hash and links the parent pointer.
func (b *Block) seal(parent *Block) {
	b.hash = sha256.Sum256(b.content())
	b.parent = parent
	if parent != nil {
		b.depth = parent.depth + 1
	}
}

// Genesis returns the unique genesis block (slot 0, no issuer).
func Genesis() *Block {
	g := &Block{Slot: 0, Issuer: -1}
	g.seal(nil)
	return g
}

// Keyring holds each party's signing keys. The keys are deterministic from
// the seed so executions are reproducible.
type Keyring struct {
	priv []ed25519.PrivateKey
	pub  []ed25519.PublicKey
}

// NewKeyring derives n deterministic ed25519 keypairs from seed.
func NewKeyring(n int, seed int64) *Keyring {
	k := &Keyring{priv: make([]ed25519.PrivateKey, n), pub: make([]ed25519.PublicKey, n)}
	for i := 0; i < n; i++ {
		var material [32]byte
		binary.BigEndian.PutUint64(material[:8], uint64(seed))
		binary.BigEndian.PutUint64(material[8:16], uint64(i))
		material = sha256.Sum256(material[:])
		k.priv[i] = ed25519.NewKeyFromSeed(material[:])
		k.pub[i] = k.priv[i].Public().(ed25519.PublicKey)
	}
	return k
}

// Public returns the party's verification key.
func (k *Keyring) Public(party int) ed25519.PublicKey { return k.pub[party] }

// MakeBlock creates, signs and seals a block by the given party on parent.
func (k *Keyring) MakeBlock(party, slot int, parent *Block, payload []byte) *Block {
	b := &Block{Slot: slot, Issuer: party, Parent: parent.Hash(), Payload: payload}
	b.Sig = ed25519.Sign(k.priv[party], b.content())
	b.seal(parent)
	return b
}

// Eligibility is the public leader-eligibility predicate nodes validate
// against (satisfied by *leader.Schedule).
type Eligibility interface {
	Eligible(party, slot int) bool
}

// Validation errors distinguish the failure-injection cases tested in the
// suite.
var (
	ErrBadSignature  = errors.New("chainsim: invalid block signature")
	ErrNotEligible   = errors.New("chainsim: issuer not a slot leader")
	ErrSlotOrder     = errors.New("chainsim: slot does not exceed parent slot")
	ErrUnknownParent = errors.New("chainsim: parent block unknown")
	ErrHashMismatch  = errors.New("chainsim: parent pointer does not match parent hash")
)

// VerifyBlock checks a received block against a view containing its parent:
// signature, leader eligibility, strictly increasing slots, and parent
// linkage. Genesis is verified by identity elsewhere.
func VerifyBlock(b *Block, keys *Keyring, elig Eligibility, parent *Block) error {
	if parent == nil {
		return ErrUnknownParent
	}
	if parent.Hash() != b.Parent {
		return ErrHashMismatch
	}
	if b.Slot <= parent.Slot {
		return fmt.Errorf("%w: %d ≤ %d", ErrSlotOrder, b.Slot, parent.Slot)
	}
	if b.Issuer < 0 || !elig.Eligible(b.Issuer, b.Slot) {
		return fmt.Errorf("%w: party %d at slot %d", ErrNotEligible, b.Issuer, b.Slot)
	}
	if !ed25519.Verify(keys.Public(b.Issuer), b.content(), b.Sig) {
		return ErrBadSignature
	}
	return nil
}

// CommonAncestor returns the deepest block on both chains.
func CommonAncestor(a, b *Block) *Block {
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	for a != b {
		a = a.parent
		b = b.parent
	}
	return a
}

// DisjointBefore reports whether two distinct chains share no block issued
// at or after slot s: their last common block is labeled ≤ s−1. This is the
// divergence notion of the x-balanced-fork framework (Definition 18 /
// Observation 2), which the relative-margin calculus characterizes. It is
// implied by, and slightly wider than, divergence prior to s in the narrow
// sense of Definition 3 (different blocks labeled s on the two chains).
func DisjointBefore(a, b *Block, s int) bool {
	return a != b && CommonAncestor(a, b).Slot < s
}
