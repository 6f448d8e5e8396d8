// Package leader implements the leader-election substrate that induces the
// paper's characteristic strings: stake distributions, Praos-style
// independent per-slot lotteries with the φ_f stake function, and the
// projection from concrete leader schedules to {⊥, h, H, A} symbols.
//
// The paper's protocols elect leaders with verifiable random functions.
// The analysis consumes only the induced law of the characteristic string
// (InducedSemiSync), which any unpredictable Bernoulli lottery reproduces;
// the package's tests check it against a private lottery simulated with
// SHA-256 over (Seed, party, slot).
package leader

import (
	"encoding/binary"
	"fmt"
	"math"

	"multihonest/internal/charstring"
)

// Party describes one stakeholder.
type Party struct {
	ID     int
	Stake  float64
	Honest bool
}

// Schedule assigns a set of leaders to every slot.
type Schedule struct {
	Parties []Party
	// Leaders[t-1] lists the IDs of slot t's leaders in ascending order.
	Leaders [][]int
}

// Horizon returns the number of slots covered.
func (s *Schedule) Horizon() int { return len(s.Leaders) }

// Eligible reports whether the party led the slot; it is the public
// eligibility check protocol nodes use to validate blocks.
func (s *Schedule) Eligible(party, slot int) bool {
	if slot < 1 || slot > len(s.Leaders) {
		return false
	}
	for _, id := range s.Leaders[slot-1] {
		if id == party {
			return true
		}
	}
	return false
}

// Characteristic projects the schedule to a semi-synchronous characteristic
// string: no leaders → ⊥, any adversarial leader → A, one honest leader →
// h, several honest leaders → H.
func (s *Schedule) Characteristic() charstring.String {
	w := make(charstring.String, len(s.Leaders))
	for t, leaders := range s.Leaders {
		w[t] = symbolFor(s.Parties, leaders)
	}
	return w
}

func symbolFor(parties []Party, leaders []int) charstring.Symbol {
	if len(leaders) == 0 {
		return charstring.Empty
	}
	honest := 0
	for _, id := range leaders {
		if !parties[id].Honest {
			return charstring.Adversarial
		}
		honest++
	}
	if honest == 1 {
		return charstring.UniqueHonest
	}
	return charstring.MultiHonest
}

// Lottery is the Praos-style independent slot lottery: party i with
// relative stake α_i leads each slot independently with probability
// φ_f(α_i) = 1 − (1−f)^{α_i}, where f is the active-slot coefficient.
// The φ function's "independent aggregation" property makes the probability
// that *some* member of a set leads depend only on the set's total stake.
type Lottery struct {
	Parties []Party
	F       float64 // active-slot coefficient f ∈ (0, 1]
	Seed    [32]byte
}

// NewLottery validates stakes (positive, at least one party) and the
// active-slot coefficient.
func NewLottery(parties []Party, f float64, seed int64) (*Lottery, error) {
	if len(parties) == 0 {
		return nil, fmt.Errorf("leader: no parties")
	}
	if f <= 0 || f > 1 {
		return nil, fmt.Errorf("leader: active-slot coefficient %v outside (0,1]", f)
	}
	total := 0.0
	for i, p := range parties {
		if p.Stake <= 0 {
			return nil, fmt.Errorf("leader: party %d has non-positive stake %v", i, p.Stake)
		}
		if p.ID != i {
			return nil, fmt.Errorf("leader: party %d has ID %d; IDs must be positional", i, p.ID)
		}
		total += p.Stake
	}
	if total <= 0 {
		return nil, fmt.Errorf("leader: zero total stake")
	}
	var s [32]byte
	binary.BigEndian.PutUint64(s[:8], uint64(seed))
	return &Lottery{Parties: parties, F: f, Seed: s}, nil
}

// Phi returns φ_f(alpha) = 1 − (1−f)^alpha.
func (l *Lottery) Phi(alpha float64) float64 {
	return 1 - math.Pow(1-l.F, alpha)
}

// totalStake returns the sum of stakes.
func (l *Lottery) totalStake() float64 {
	t := 0.0
	for _, p := range l.Parties {
		t += p.Stake
	}
	return t
}

// InducedSemiSync returns the exact i.i.d. law of the characteristic symbol
// induced by the lottery: with A the adversarial set and H the honest set,
//
//	Pr[⊥]  = Π_i (1 − φ_i)
//	Pr[A]  = 1 − Π_{i∈A} (1 − φ_i)
//	Pr[h]  = Π_{i∈A}(1−φ_i) · Σ_{j∈H} φ_j Π_{i∈H, i≠j} (1 − φ_i)
//	Pr[H]  = 1 − Pr[⊥] − Pr[A] − Pr[h].
func (l *Lottery) InducedSemiSync() (charstring.SemiSyncParams, error) {
	total := l.totalStake()
	noneAdv, noneHon := 1.0, 1.0
	var honPhis []float64
	for _, p := range l.Parties {
		phi := l.Phi(p.Stake / total)
		if p.Honest {
			noneHon *= 1 - phi
			honPhis = append(honPhis, phi)
		} else {
			noneAdv *= 1 - phi
		}
	}
	pEmpty := noneAdv * noneHon
	pA := 1 - noneAdv
	// Exactly one honest leader, no adversarial leader.
	single := 0.0
	for _, phi := range honPhis {
		if phi < 1 {
			single += noneHon * phi / (1 - phi)
		}
	}
	ph := noneAdv * single
	pH := 1 - pEmpty - pA - ph
	if pH < 0 {
		pH = 0
	}
	return charstring.NewSemiSyncParams(pEmpty, ph, pH, pA)
}

// BernoulliSchedule draws a schedule directly from an abstract
// (ǫ, ph)-Bernoulli law using three virtual parties: one adversarial
// (ID 0) and two honest (IDs 1, 2); multiply honest slots elect both honest
// parties. It lets the protocol simulator exercise exactly the abstract
// distributions of the paper's theorems.
func BernoulliSchedule(p charstring.Params, horizon int, rng interface{ Float64() float64 }) *Schedule {
	parties := []Party{{ID: 0, Stake: 1, Honest: false}, {ID: 1, Stake: 1, Honest: true}, {ID: 2, Stake: 1, Honest: true}}
	s := &Schedule{Parties: parties, Leaders: make([][]int, horizon)}
	pA := p.PA()
	for t := 0; t < horizon; t++ {
		u := rng.Float64()
		switch {
		case u < pA:
			s.Leaders[t] = []int{0}
		case u < pA+p.Ph:
			s.Leaders[t] = []int{1}
		default:
			s.Leaders[t] = []int{1, 2}
		}
	}
	return s
}
