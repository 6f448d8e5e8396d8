// Package cp implements the common-prefix analysis of Section 9 of the
// paper: the slot-indexed property k-CP^slot (Definition 24) and its
// UVP-window characterization (implication 25), the event that Theorem 8
// bounds.
//
// A k-CP violation (truncating k blocks) implies a k-CP^slot violation
// (truncating k slots), so bounding the latter rules out both.
package cp

import (
	"multihonest/internal/catalan"
	"multihonest/internal/charstring"
)

// UVPFreeWindow returns the length of the longest window of w that
// contains no slot with the UVP, under the selected tie-breaking model.
// UVP certificates come from the exact uniquely-honest-Catalan
// characterization (Theorem 3) and, with consistent ties, the
// consecutive-Catalan-pair rule (Theorem 4).
//
// By implication (25), w can only violate k-CP^slot if this length is
// at least k; the returned value therefore certifies k-CP^slot for every
// k exceeding it.
func UVPFreeWindow(w charstring.String, consistentTies bool) int {
	sc := catalan.Analyze(w)
	longest, last := 0, 0 // last = most recent UVP slot
	for s := 1; s <= len(w); s++ {
		if sc.HasUVP(s, consistentTies) {
			longest = max(longest, s-last-1)
			last = s
		}
	}
	return max(longest, len(w)-last)
}

// ViolationPossible reports whether w admits a k-CP^slot violation witness
// in the margin sense used by Theorem 8's proof: some window of length ≥ k
// with no UVP slot. Its negation certifies k-CP^slot (and hence k-CP).
//
// The test is conservative in the safe direction: if it returns false, no
// fork for w violates k-CP^slot.
func ViolationPossible(w charstring.String, k int, consistentTies bool) bool {
	return UVPFreeWindow(w, consistentTies) >= k
}
