package core

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/surfacecode"
)

// TestLanePoliciesIndependentLanes: an ERASER observation delivered on one
// lane's event bits triggers LRCs in that lane's next plan only.
func TestLanePoliciesIndependentLanes(t *testing.T) {
	l := surfacecode.MustNew(3)
	lp := NewLanePolicies(PolicyEraser, l, circuit.ProtocolSwap, circuit.WordLanes)
	lp.Reset()
	lp.PlanRound(1, circuit.LaneMask(^uint64(0)))

	// Fire every stabilizer neighboring data qubit 4 on lane 7 only.
	events := make([]uint64, l.NumParity)
	for _, s := range l.DataStabs[4] {
		events[s] |= 1 << 7
	}
	lp.Observe(LaneRoundInfo{Round: 1, Active: circuit.LaneMask(^uint64(0)), Events: events})

	plans := lp.PlanRound(2, circuit.LaneMask(^uint64(0)))
	for i, plan := range plans {
		if i != 7 && len(plan.LRCs) != 0 {
			t.Fatalf("lane %d: planned %d LRCs from lane 7's events", i, len(plan.LRCs))
		}
	}
	// The shared stabilizer flips may speculate neighboring qubits too; the
	// load-bearing claims are that lane 7 schedules qubit 4 and that no
	// other lane schedules anything.
	if len(plans[7].LRCs) == 0 {
		t.Fatal("lane 7 planned no LRCs after its syndrome flips")
	}
	if got := lp.PlannedWord(4); got != 1<<7 {
		t.Fatalf("PlannedWord(4) = %b, want lane 7", got)
	}
	if lp.LRCTotal() != int64(len(plans[7].LRCs)) {
		t.Fatalf("LRCTotal = %d, want %d", lp.LRCTotal(), len(plans[7].LRCs))
	}
}

// TestLanePoliciesOptimalReadsTruthWords: the oracle policy schedules from
// the packed ground-truth leakage words, per lane.
func TestLanePoliciesOptimalReadsTruthWords(t *testing.T) {
	l := surfacecode.MustNew(3)
	lp := NewLanePolicies(PolicyOptimal, l, circuit.ProtocolSwap, circuit.WordLanes)
	lp.Reset()
	lp.PlanRound(1, circuit.LaneMask(^uint64(0)))

	truth := make([]uint64, l.NumData)
	truth[0] = 1<<2 | 1<<9
	lp.Observe(LaneRoundInfo{Round: 1, Active: circuit.LaneMask(^uint64(0)), TrueLeakedData: truth})

	lp.PlanRound(2, circuit.LaneMask(^uint64(0)))
	if got := lp.PlannedWord(0); got != 1<<2|1<<9 {
		t.Fatalf("PlannedWord(0) = %b, want lanes 2 and 9", got)
	}
	if lp.LRCTotal() != 2 {
		t.Fatalf("LRCTotal = %d, want 2", lp.LRCTotal())
	}
}

// TestLanePoliciesInactiveLanes: inactive lanes get empty plans and never
// contribute to the planned words or the LRC count, even when their policy
// state would schedule.
func TestLanePoliciesInactiveLanes(t *testing.T) {
	l := surfacecode.MustNew(3)
	lp := NewLanePolicies(PolicyOptimal, l, circuit.ProtocolSwap, circuit.WordLanes)
	lp.Reset()
	active := circuit.LaneMask(0b11) // only lanes 0 and 1
	lp.PlanRound(1, active)

	truth := make([]uint64, l.NumData)
	truth[0] = 1<<1 | 1<<5 // lane 5 is inactive
	lp.Observe(LaneRoundInfo{Round: 1, Active: active, TrueLeakedData: truth})

	plans := lp.PlanRound(2, active)
	if len(plans[5].LRCs) != 0 {
		t.Fatal("inactive lane 5 produced a plan")
	}
	if got := lp.PlannedWord(0); got != 1<<1 {
		t.Fatalf("PlannedWord(0) = %b, want lane 1 only", got)
	}
	if lp.LRCTotal() != 1 {
		t.Fatalf("LRCTotal = %d, want 1", lp.LRCTotal())
	}
}

// TestLanePlannerMatchesScalar is the word-parallel planner's differential
// oracle: 64 independent scalar policy instances (NewPolicy), fed the same
// seeded random event, multi-level readout and ground-truth words one lane
// at a time, must agree with LanePolicies on every lane's plan, the planned
// words, the LRC total and the compiled masked round, over hundreds of rounds
// with periodic resets, under the paper's design and under each Ablation
// field. Observation rates run up to 0.3 so that PUTT holds and
// primary/backup conflicts actually fire.
func TestLanePlannerMatchesScalar(t *testing.T) {
	masks := []struct {
		name string
		mask func(*rand.Rand) circuit.LaneMask
	}{
		{"full", func(*rand.Rand) circuit.LaneMask { return circuit.LaneMaskFor(circuit.WordLanes) }},
		{"partial", func(*rand.Rand) circuit.LaneMask { return circuit.LaneMaskFor(37) }},
		// A fresh random active set every round: inactive lanes must keep
		// their LTT and PUTT untouched, as unplanned scalar instances do.
		{"varying", func(rng *rand.Rand) circuit.LaneMask { return rng.Uint64() }},
	}
	// The ERASER variants also run under each ablation; the suffix names it.
	ablations := []struct {
		suffix string
		a      Ablation
	}{
		{"", Ablation{}},
		{"-t1", Ablation{Threshold: 1}},
		{"-t3-nobackup", Ablation{Threshold: 3, NoBackup: true}},
		{"-noputt", Ablation{NoPUTT: true}},
	}
	for _, d := range []int{3, 5, 7} {
		l := surfacecode.MustNew(d)
		for _, k := range []Kind{PolicyEraser, PolicyEraserM, PolicyOptimal} {
			for ai, ab := range ablations {
				if ab.a != (Ablation{}) && k == PolicyOptimal {
					continue
				}
				for _, proto := range []circuit.Protocol{circuit.ProtocolSwap, circuit.ProtocolDQLR} {
					for mi, m := range masks {
						name := fmt.Sprintf("d%d/%v%s/%v/%s", d, k, ab.suffix, proto, m.name)
						seed := uint64(d)<<16 | uint64(k)<<8 | uint64(proto)<<4 | uint64(mi)
						t.Run(name, func(t *testing.T) {
							rng := rand.New(rand.NewPCG(seed, 1+uint64(ai)))
							checkLanePlannerAgainstScalar(t, l, k, proto, ab.a, rng, m.mask)
						})
					}
				}
			}
		}
	}
}

func checkLanePlannerAgainstScalar(t *testing.T, l *surfacecode.Layout, k Kind, proto circuit.Protocol,
	a Ablation, rng *rand.Rand, nextMask func(*rand.Rand) circuit.LaneMask) {
	const rounds = 240
	lp := NewLanePolicies(k, l, proto, circuit.WordLanes)
	pols := make([]Policy, circuit.WordLanes)
	for i := range pols {
		pols[i] = NewPolicy(k, l, proto)
	}
	if a != (Ablation{}) {
		lp.Ablate(a)
		for _, p := range pols {
			p.(*Eraser).Ablate(a)
		}
	}
	if lp.Name() != pols[0].Name() {
		t.Fatalf("Name %q, want %q", lp.Name(), pols[0].Name())
	}
	wordB, laneB := circuit.NewBuilder(l), circuit.NewBuilder(l)
	scalarPlans := make([]circuit.Plan, circuit.WordLanes)
	events := make([]uint64, l.NumParity)
	mlLeak := make([]uint64, l.NumParity)
	mlVal := make([]uint64, l.NumParity)
	truth := make([]uint64, l.NumData)
	laneEvents := make([]uint8, l.NumParity)
	laneML := make([]sim.MLClass, l.NumParity)
	laneTruth := make([]bool, l.NumData)
	var backups, deferred int

	for r := 1; r <= rounds; r++ {
		if r%37 == 1 {
			lp.Reset()
			for _, p := range pols {
				p.Reset()
			}
		}
		active := nextMask(rng)

		plans := lp.PlanRound(r, active)
		wordPlan := &lp.plan // PlanRound planned through PlanWords
		var total int64
		for i := range pols {
			bit := uint64(1) << uint(i)
			if active&bit == 0 {
				scalarPlans[i] = circuit.Plan{}
				if len(plans[i].LRCs) != 0 {
					t.Fatalf("round %d: inactive lane %d planned %v", r, i, plans[i].LRCs)
				}
				continue
			}
			want := pols[i].PlanRound(r)
			scalarPlans[i] = want
			total += int64(len(want.LRCs))
			got := plans[i]
			if !slices.Equal(got.LRCs, want.LRCs) || got.Protocol != want.Protocol || got.CondReturn != want.CondReturn {
				t.Fatalf("round %d lane %d: plan %+v, scalar %+v", r, i, got, want)
			}
		}
		for q := 0; q < l.NumData; q++ {
			w := lp.PlannedWord(q)
			if w&^active != 0 {
				t.Fatalf("round %d: PlannedWord(%d) = %#x reaches inactive lanes", r, q, w)
			}
			for i := range pols {
				if active>>uint(i)&1 != 0 && (w>>uint(i)&1 != 0) != pols[i].PlannedLRC(q) {
					t.Fatalf("round %d: PlannedWord(%d) bit %d disagrees with the scalar instance", r, q, i)
				}
			}
			backups += bits.OnesCount64(lp.backup[q])
			deferred += bits.OnesCount64(lp.ltt[q] & active &^ w)
		}
		if lp.LRCTotal() != total {
			t.Fatalf("round %d: LRCTotal %d, scalar sum %d", r, lp.LRCTotal(), total)
		}
		got := wordB.MaskedRoundLanes(wordPlan, active)
		want := laneB.MaskedRound(scalarPlans, active)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: MaskedRoundLanes emits %d ops, MaskedRound of scalar plans %d (or they differ)",
				r, len(got), len(want))
		}

		rate := []float64{0.02, 0.1, 0.3}[rng.IntN(3)]
		fill(rng, events, rate)
		fill(rng, mlLeak, rate/3)
		fill(rng, mlVal, 0.5)
		fill(rng, truth, rate)
		lp.Observe(LaneRoundInfo{Round: r, Active: active, Events: events,
			MLParityLeak: mlLeak, MLParityVal: mlVal, TrueLeakedData: truth})
		for i, p := range pols {
			sh := uint(i)
			if active>>sh&1 == 0 {
				continue
			}
			for s := range laneEvents {
				laneEvents[s] = uint8(events[s] >> sh & 1)
				switch {
				case mlLeak[s]>>sh&1 != 0:
					laneML[s] = sim.MLLeak
				case mlVal[s]>>sh&1 != 0:
					laneML[s] = sim.ML1
				default:
					laneML[s] = sim.ML0
				}
			}
			for q := range laneTruth {
				laneTruth[q] = truth[q]>>sh&1 != 0
			}
			p.Observe(RoundInfo{Round: r, Events: laneEvents, MLParity: laneML, TrueLeakedData: laneTruth})
		}
	}
	if (backups == 0) != a.NoBackup || deferred == 0 {
		t.Fatalf("coverage: %d backup LRCs (backups off: %v), %d deferred requests", backups, a.NoBackup, deferred)
	}
}

// fill sets each bit of every word independently with probability p.
func fill(rng *rand.Rand, words []uint64, p float64) {
	for j := range words {
		var w uint64
		for b := 0; b < 64; b++ {
			if rng.Float64() < p {
				w |= 1 << uint(b)
			}
		}
		words[j] = w
	}
}

// TestLanePoliciesRejectsStaticKinds: static schedules plan identically for
// every lane through NewPolicy, so the word planner refuses them.
func TestLanePoliciesRejectsStaticKinds(t *testing.T) {
	l := surfacecode.MustNew(3)
	for _, k := range []Kind{PolicyNone, PolicyAlways} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLanePolicies(%v) did not panic", k)
				}
			}()
			NewLanePolicies(k, l, circuit.ProtocolSwap, circuit.WordLanes)
		}()
	}
}
