package leader

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"multihonest/internal/charstring"
)

// leads reports whether the party leads the slot: a deterministic
// pseudo-VRF evaluation H(seed‖party‖slot) compared against the
// φ-threshold. Everyone can recompute it, which stands in for VRF proof
// verification.
func leads(l *Lottery, party, slot int) bool {
	if party < 0 || party >= len(l.Parties) {
		return false
	}
	var buf [48]byte
	copy(buf[:32], l.Seed[:])
	binary.BigEndian.PutUint64(buf[32:40], uint64(party))
	binary.BigEndian.PutUint64(buf[40:48], uint64(slot))
	h := sha256.Sum256(buf[:])
	u := float64(binary.BigEndian.Uint64(h[:8])>>11) / float64(1<<53)
	alpha := l.Parties[party].Stake / l.totalStake()
	return u < l.Phi(alpha)
}

// draw materializes the lottery's slot-by-slot leader schedule over the
// horizon.
func draw(l *Lottery, horizon int) *Schedule {
	s := &Schedule{Parties: l.Parties, Leaders: make([][]int, horizon)}
	for t := 1; t <= horizon; t++ {
		for id := range l.Parties {
			if leads(l, id, t) {
				s.Leaders[t-1] = append(s.Leaders[t-1], id)
			}
		}
	}
	return s
}

func tenParties(advStake float64) []Party {
	// 10 parties; party 0 holds the adversarial stake, the rest split the
	// remainder evenly.
	ps := make([]Party, 10)
	ps[0] = Party{ID: 0, Stake: advStake, Honest: false}
	for i := 1; i < 10; i++ {
		ps[i] = Party{ID: i, Stake: (1 - advStake) / 9, Honest: true}
	}
	return ps
}

func TestLotteryValidation(t *testing.T) {
	if _, err := NewLottery(nil, 0.1, 1); err == nil {
		t.Error("empty party set accepted")
	}
	if _, err := NewLottery(tenParties(0.3), 0, 1); err == nil {
		t.Error("f = 0 accepted")
	}
	bad := tenParties(0.3)
	bad[3].Stake = -1
	if _, err := NewLottery(bad, 0.1, 1); err == nil {
		t.Error("negative stake accepted")
	}
	misID := tenParties(0.3)
	misID[2].ID = 7
	if _, err := NewLottery(misID, 0.1, 1); err == nil {
		t.Error("non-positional IDs accepted")
	}
}

func TestPhiAggregation(t *testing.T) {
	// φ's defining property: 1 − φ(α1 + α2) = (1 − φ(α1))(1 − φ(α2)).
	l, err := NewLottery(tenParties(0.3), 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lhs := 1 - l.Phi(0.5)
	rhs := (1 - l.Phi(0.2)) * (1 - l.Phi(0.3))
	if math.Abs(lhs-rhs) > 1e-12 {
		t.Errorf("φ aggregation broken: %v vs %v", lhs, rhs)
	}
}

func TestScheduleAndCharacteristic(t *testing.T) {
	l, err := NewLottery(tenParties(0.25), 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	const T = 5000
	sched := draw(l, T)
	if sched.Horizon() != T {
		t.Fatal("horizon mismatch")
	}
	w := sched.Characteristic()
	if !w.SemiSync() {
		t.Fatal("invalid characteristic string")
	}
	// Eligibility must agree with the schedule.
	for s := 1; s <= 50; s++ {
		for id := range sched.Parties {
			inList := false
			for _, x := range sched.Leaders[s-1] {
				if x == id {
					inList = true
				}
			}
			if sched.Eligible(id, s) != inList {
				t.Fatalf("eligibility mismatch party %d slot %d", id, s)
			}
		}
	}
	// Empirical symbol frequencies match the induced law.
	sp, err := l.InducedSemiSync()
	if err != nil {
		t.Fatal(err)
	}
	freq := func(sym charstring.Symbol) float64 { return float64(w.Count(sym)) / T }
	for _, c := range []struct {
		name string
		want float64
		got  float64
	}{
		{"⊥", sp.PEmpty, freq(charstring.Empty)},
		{"A", sp.PA, freq(charstring.Adversarial)},
		{"h", sp.Ph, freq(charstring.UniqueHonest)},
		{"H", sp.PH, freq(charstring.MultiHonest)},
	} {
		if math.Abs(c.want-c.got) > 0.02 {
			t.Errorf("%s: induced %.4f vs empirical %.4f", c.name, c.want, c.got)
		}
	}
}

func TestBernoulliSchedule(t *testing.T) {
	p := charstring.MustParams(0.2, 0.3)
	rng := rand.New(rand.NewSource(2))
	sched := BernoulliSchedule(p, 20000, rng)
	w := sched.Characteristic()
	if !w.Sync() {
		t.Fatal("Bernoulli schedule must have no empty slots")
	}
	if f := float64(w.Count(charstring.Adversarial)) / 20000; math.Abs(f-p.PA()) > 0.01 {
		t.Errorf("empirical pA = %v", f)
	}
	// H slots must have two honest leaders so the fork's A3 axiom can bind.
	for i, leaders := range sched.Leaders {
		if w[i] == charstring.MultiHonest && len(leaders) != 2 {
			t.Fatalf("H slot %d has %d leaders", i+1, len(leaders))
		}
	}
}
