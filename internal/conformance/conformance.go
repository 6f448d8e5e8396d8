// Package conformance is the single machine-checked surface for the
// repository's named cross-engine invariants.
//
// Every identity the packages rely on — capped DP ≡ paper-sized naive
// sweep, banded lattice ≡ full-grid lattice, streaming verdicts ≡ slice
// oracles, worker-count bit-invariance of the Monte-Carlo folds, the
// θ = 0 tilt ≡ plain Monte-Carlo bitwise, oracle hot ≡ cold byte
// identity, realized attacker margins ≡ adversary.AStar — is one
// registered entry: a name, a one-sentence statement, the code anchor
// that enforces it, and a randomized Check. The suite runs as
//
//	go test -run Conformance ./internal/conformance
//
// and the registry is enumerable so INVARIANTS.md can be asserted in
// sync with it: TestConformanceDocSync fails when a registered invariant
// has no doc entry or a doc entry names no registered invariant.
//
// The same package carries the differential fuzz targets
// (FuzzCharstringRoundTrip, FuzzMarginRecurrence, FuzzDPvsMC,
// FuzzStreamScanners, FuzzBlockSampler, FuzzSnapshotDecode,
// FuzzQueryPaths) that drive the identities at fuzzer-chosen points;
// CI runs each for 30 seconds per push. See INVARIANTS.md for the
// human-readable ledger and DESIGN.md §11 for the subsystem rationale.
package conformance

import (
	"math/rand"
	"testing"
)

// Invariant is one registered cross-engine identity.
type Invariant struct {
	// Name is the kebab-case identifier; it doubles as the INVARIANTS.md
	// heading anchor the doc-sync test matches against.
	Name string
	// Statement is the one-sentence claim being checked.
	Statement string
	// Anchor names the code that enforces the invariant (package.Func or
	// file:line region), for the INVARIANTS.md "enforced by" column.
	Anchor string
	// Check exercises the invariant at randomized parameter points drawn
	// from r. The generator is seeded deterministically per invariant, so
	// failures reproduce.
	Check func(t *testing.T, r *rand.Rand)
}

// Registry returns every registered invariant in a fixed, deterministic
// order. The slice is freshly allocated; callers may reorder it.
func Registry() []Invariant {
	var all []Invariant
	all = append(all, latticeInvariants()...)
	all = append(all, mcInvariants()...)
	all = append(all, runnerInvariants()...)
	all = append(all, rareInvariants()...)
	all = append(all, oracleInvariants()...)
	all = append(all, chainsimInvariants()...)
	return all
}
