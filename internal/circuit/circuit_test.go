package circuit

import (
	"math/bits"
	"testing"

	"repro/internal/surfacecode"
)

func countKind(ops []Op, k OpKind) int {
	n := 0
	for _, op := range ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

func TestPlainRoundStructure(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		l := surfacecode.MustNew(d)
		b := NewBuilder(l)
		ops := b.Round(Plan{})

		wantCNOTs := 0
		numX := 0
		for _, s := range l.Stabilizers {
			wantCNOTs += s.Weight()
			if s.Kind == surfacecode.KindX {
				numX++
			}
		}
		if got := countKind(ops, OpCNOT); got != wantCNOTs {
			t.Errorf("d=%d: %d CNOTs, want %d", d, got, wantCNOTs)
		}
		if got := countKind(ops, OpH); got != 2*numX {
			t.Errorf("d=%d: %d Hadamards, want %d", d, got, 2*numX)
		}
		if got := countKind(ops, OpMeasure); got != l.NumParity {
			t.Errorf("d=%d: %d measurements, want %d", d, got, l.NumParity)
		}
		if got := countKind(ops, OpReset); got != l.NumParity {
			t.Errorf("d=%d: %d resets, want %d", d, got, l.NumParity)
		}
	}
}

// TestEveryStabilizerMeasuredOnce checks the measurement tagging for plain
// and LRC rounds.
func TestEveryStabilizerMeasuredOnce(t *testing.T) {
	l := surfacecode.MustNew(5)
	b := NewBuilder(l)
	plans := []Plan{
		{},
		{LRCs: []LRC{{Data: 0, Stab: l.SwapPrimary[0]}, {Data: 7, Stab: l.SwapPrimary[7]}}},
	}
	for pi, plan := range plans {
		seen := make(map[int]int)
		for _, op := range b.Round(plan) {
			if op.Kind == OpMeasure && op.Stab >= 0 {
				seen[op.Stab]++
			}
		}
		for i := range l.Stabilizers {
			if seen[i] != 1 {
				t.Fatalf("plan %d: stabilizer %d measured %d times", pi, i, seen[i])
			}
		}
	}
}

// TestLRCMeasuresDataWire checks that an LRC'd stabilizer's outcome is read
// off the swapped data qubit.
func TestLRCMeasuresDataWire(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	q := 4 // center data qubit
	s := l.SwapPrimary[q]
	ops := b.Round(Plan{LRCs: []LRC{{Data: q, Stab: s}}})
	found := false
	for _, op := range ops {
		if op.Kind == OpMeasure && op.Stab == s {
			if op.Q0 != q || !op.DataWire {
				t.Fatalf("LRC measurement on wire %d (dataWire=%v), want data qubit %d",
					op.Q0, op.DataWire, q)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no measurement for the LRC'd stabilizer")
	}
}

// TestLRCOpCount checks Figure 1(b)'s accounting: a parity qubit in an LRC
// participates in 9 two-qubit operations (4 extraction + 3 forward SWAP + 2
// return), against 4 in a plain round.
func TestLRCOpCount(t *testing.T) {
	l := surfacecode.MustNew(5)
	b := NewBuilder(l)
	// Pick a weight-4 stabilizer and one of its data qubits.
	var stab, data int = -1, -1
	for _, s := range l.Stabilizers {
		if s.Weight() == 4 {
			stab, data = s.Index, s.Data[0]
			break
		}
	}
	anc := l.Stabilizers[stab].Ancilla
	countTouching := func(ops []Op) int {
		n := 0
		for _, op := range ops {
			switch op.Kind {
			case OpCNOT:
				if op.Q0 == anc || op.Q1 == anc {
					n++
				}
			case OpSwapReturn, OpCondReturn:
				if op.Q0 == anc || op.Q1 == anc {
					n += 2
				}
			}
		}
		return n
	}
	plain := countTouching(b.Round(Plan{}))
	if plain != TwoQubitOpsPerParity(false) {
		t.Fatalf("plain round: parity in %d two-qubit ops, want %d", plain, TwoQubitOpsPerParity(false))
	}
	lrc := countTouching(b.Round(Plan{LRCs: []LRC{{Data: data, Stab: stab}}}))
	if lrc != TwoQubitOpsPerParity(true) {
		t.Fatalf("LRC round: parity in %d two-qubit ops, want %d", lrc, TwoQubitOpsPerParity(true))
	}
}

func TestCondReturnSelection(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	plan := Plan{LRCs: []LRC{{Data: 0, Stab: l.SwapPrimary[0]}}}
	if got := countKind(b.Round(plan), OpCondReturn); got != 0 {
		t.Fatalf("plain plan emitted %d conditional returns", got)
	}
	if got := countKind(b.Round(plan), OpSwapReturn); got != 1 {
		t.Fatalf("plain plan emitted %d swap returns, want 1", got)
	}
	plan.CondReturn = true
	if got := countKind(b.Round(plan), OpCondReturn); got != 1 {
		t.Fatalf("cond plan emitted %d conditional returns, want 1", got)
	}
}

func TestDQLRRound(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	pairs := []LRC{{Data: 0, Stab: l.SwapPrimary[0]}, {Data: 8, Stab: l.SwapPrimary[8]}}
	ops := b.Round(Plan{LRCs: pairs, Protocol: ProtocolDQLR})
	if got := countKind(ops, OpLeakISWAP); got != len(pairs) {
		t.Fatalf("%d LeakageISWAPs, want %d", got, len(pairs))
	}
	// Parity qubits are measured+reset normally, then reset again after the
	// LeakageISWAP: NumParity + len(pairs) resets in total.
	if got := countKind(ops, OpReset); got != l.NumParity+len(pairs) {
		t.Fatalf("%d resets, want %d", got, l.NumParity+len(pairs))
	}
	// DQLR must not emit SWAP CNOT traffic beyond extraction.
	wantCNOTs := 0
	for _, s := range l.Stabilizers {
		wantCNOTs += s.Weight()
	}
	if got := countKind(ops, OpCNOT); got != wantCNOTs {
		t.Fatalf("%d CNOTs, want %d (extraction only)", got, wantCNOTs)
	}
}

func TestXStabilizerHadamardWire(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	// Find an X stabilizer and LRC one of its data qubits with it.
	var xs *surfacecode.Stabilizer
	for i := range l.Stabilizers {
		if l.Stabilizers[i].Kind == surfacecode.KindX {
			xs = &l.Stabilizers[i]
			break
		}
	}
	q := xs.Data[0]
	ops := b.Round(Plan{LRCs: []LRC{{Data: q, Stab: xs.Index}}})
	// The closing Hadamard for this stabilizer must land on the data wire.
	hOnData, hOnAncilla := 0, 0
	for _, op := range ops {
		if op.Kind != OpH {
			continue
		}
		if op.Q0 == q {
			hOnData++
		}
		if op.Q0 == xs.Ancilla {
			hOnAncilla++
		}
	}
	if hOnData != 1 {
		t.Fatalf("closing H on data wire %d times, want 1", hOnData)
	}
	if hOnAncilla != 1 { // only the opening H
		t.Fatalf("H on ancilla %d times, want 1 (opening only)", hOnAncilla)
	}
}

func TestFinalMeasurement(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	ops := b.FinalMeasurement()
	if len(ops) != l.NumData {
		t.Fatalf("%d final ops, want %d", len(ops), l.NumData)
	}
	for i, op := range ops {
		if op.Kind != OpMeasure || op.Q0 != i || op.Stab != -1 {
			t.Fatalf("final op %d malformed: %+v", i, op)
		}
	}
}

func TestBuilderReuse(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	plan := Plan{LRCs: []LRC{{Data: 2, Stab: l.SwapPrimary[2]}}}
	first := append([]Op(nil), b.Round(plan)...)
	b.Round(Plan{}) // interleave a different round
	second := b.Round(plan)
	if len(first) != len(second) {
		t.Fatalf("round lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("op %d differs after builder reuse: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestCountTwoQubitOps(t *testing.T) {
	ops := []Op{
		{Kind: OpCNOT}, {Kind: OpH}, {Kind: OpSwapReturn},
		{Kind: OpCondReturn}, {Kind: OpLeakISWAP}, {Kind: OpMeasure},
	}
	if got := CountTwoQubitOps(ops); got != 1+2+2+1 {
		t.Fatalf("CountTwoQubitOps = %d, want 6", got)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolSwap.String() != "swap" || ProtocolDQLR.String() != "dqlr" {
		t.Fatal("protocol names wrong")
	}
}

// projectLane filters a masked op sequence down to the ops lane executes.
func projectLane(mops []MaskedOp, lane int) []Op {
	var out []Op
	for _, m := range mops {
		if m.Mask&(1<<uint(lane)) != 0 {
			out = append(out, m.Op)
		}
	}
	return out
}

// maskBits counts the lanes a mask selects.
func maskBits(m LaneMask) int { return bits.OnesCount64(m) }

// sortLRCsByStab orders a plan's LRC list by stabilizer index, the order the
// masked emitter uses, so per-lane projections compare op-for-op with the
// scalar Round.
func sortLRCsByStab(lrcs []LRC) []LRC {
	out := append([]LRC(nil), lrcs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Stab < out[j-1].Stab; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestMaskedRoundProjectsToScalarRounds is the core contract of the lane-
// masked builder: restricting the merged masked sequence to any single lane
// must reproduce exactly the op sequence the scalar builder emits for that
// lane's plan.
func TestMaskedRoundProjectsToScalarRounds(t *testing.T) {
	l := surfacecode.MustNew(5)
	b := NewBuilder(l)
	scalar := NewBuilder(l)

	for _, variant := range []struct {
		name       string
		proto      Protocol
		condReturn bool
	}{
		{"swap", ProtocolSwap, false},
		{"condreturn", ProtocolSwap, true},
		{"dqlr", ProtocolDQLR, false},
	} {
		plans := make([]Plan, 64)
		for i := range plans {
			plans[i] = Plan{Protocol: variant.proto, CondReturn: variant.condReturn}
		}
		// Lane 0: plain round. Lane 1: one LRC. Lane 2: two LRCs. Lane 5:
		// same single LRC as lane 1 (exercising mask merging). Lane 3 is
		// inactive and carries a plan that must be ignored.
		plans[1].LRCs = []LRC{{Data: 4, Stab: l.SwapPrimary[4]}}
		plans[2].LRCs = sortLRCsByStab([]LRC{
			{Data: 0, Stab: l.SwapPrimary[0]}, {Data: 12, Stab: l.SwapPrimary[12]}})
		plans[5].LRCs = plans[1].LRCs
		plans[3].LRCs = []LRC{{Data: 7, Stab: l.SwapPrimary[7]}}
		active := LaneMask(1<<0 | 1<<1 | 1<<2 | 1<<5)

		mops := b.MaskedRound(plans, active)
		for _, lane := range []int{0, 1, 2, 5} {
			want := scalar.Round(plans[lane])
			got := projectLane(mops, lane)
			if len(got) != len(want) {
				t.Fatalf("%s lane %d: %d ops, want %d", variant.name, lane, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s lane %d op %d: %+v, want %+v", variant.name, lane, i, got[i], want[i])
				}
			}
		}
		// The inactive lane's plan must leave no trace: no op may touch only
		// lane 3, and lane 3's projection equals a plain round's skeleton.
		for _, m := range mops {
			if rem := m.Mask &^ active; rem != 0 {
				t.Fatalf("%s: op %+v masked to inactive lanes %#x", variant.name, m.Op, rem)
			}
		}
	}
}

// TestMaskedRoundSharedSkeleton: the syndrome-extraction skeleton (opening
// Hadamards and extraction CNOTs) is emitted once under the full active
// mask, never duplicated per lane.
func TestMaskedRoundSharedSkeleton(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	plans := make([]Plan, 64)
	plans[0].LRCs = []LRC{{Data: 0, Stab: l.SwapPrimary[0]}}
	plans[1].LRCs = []LRC{{Data: 8, Stab: l.SwapPrimary[8]}}
	active := LaneMask(0b11)
	mops := b.MaskedRound(plans, active)

	wantCNOTs := 0
	for _, s := range l.Stabilizers {
		wantCNOTs += s.Weight()
	}
	fullMaskCNOTs := 0
	for _, m := range mops {
		if m.Op.Kind == OpCNOT && m.Mask == active {
			fullMaskCNOTs++
		}
	}
	if fullMaskCNOTs != wantCNOTs {
		t.Fatalf("%d full-mask extraction CNOTs, want %d", fullMaskCNOTs, wantCNOTs)
	}
	// Each lane's forward SWAP + return adds 5 lane-masked CNOT-equivalents;
	// they must carry exactly one lane bit here.
	for _, m := range mops {
		if m.Mask != active && maskBits(m.Mask) != 1 {
			t.Fatalf("LRC op %+v carries multi-lane mask %#x, want single lane", m.Op, m.Mask)
		}
	}
}

// TestMaskedRoundStaticPlanMatchesRound: when every lane shares one static
// plan, the masked sequence is the scalar sequence under the full mask.
func TestMaskedRoundStaticPlanMatchesRound(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	scalar := NewBuilder(l)
	plan := Plan{LRCs: []LRC{{Data: 2, Stab: l.SwapPrimary[2]}}}
	plans := make([]Plan, 64)
	for i := range plans {
		plans[i] = plan
	}
	active := LaneMask(^uint64(0))
	mops := b.MaskedRound(plans, active)
	want := scalar.Round(plan)
	if len(mops) != len(want) {
		t.Fatalf("%d masked ops, want %d", len(mops), len(want))
	}
	for i := range want {
		if mops[i].Op != want[i] || mops[i].Mask != active {
			t.Fatalf("op %d: %+v mask %#x, want %+v under full mask", i, mops[i].Op, mops[i].Mask, want[i])
		}
	}
}
