package core

import (
	"testing"

	"repro/internal/circuit"
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
