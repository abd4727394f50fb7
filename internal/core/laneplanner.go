package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/surfacecode"
)

// LaneRoundInfo is the batch-native classical record of one round: the same
// information RoundInfo carries per shot, packed one 64-lane word per
// stabilizer (or data qubit) exactly as the batch simulator returns it, so
// the engine's outputs feed the planner unchanged.
type LaneRoundInfo struct {
	// Round is the 1-based index of the round just executed.
	Round int
	// Active masks the lanes holding real shots (a partial final batch
	// leaves high lanes inactive).
	Active circuit.LaneMask
	// Events holds the detection-event word per stabilizer.
	Events []uint64
	// MLParityLeak and MLParityVal are the multi-level readout bit-planes
	// per stabilizer: is-leak and value. Only ERASER+M reads them.
	MLParityLeak []uint64
	MLParityVal  []uint64
	// TrueLeakedData holds the ground-truth leakage word per data qubit.
	// Only the idealized Optimal policy reads it.
	TrueLeakedData []uint64
}

// LanePolicies runs one independent instance of a scheduling policy per
// batch-simulator lane, so adaptive policies whose plans react to per-shot
// observations can drive the 64-lane engine. PlanRound queries every active
// lane's instance and exposes the per-lane plans (for
// circuit.Builder.MaskedRound) together with per-data-qubit planned-lane
// words and the total LRC count (for the harness accounting); Observe fans
// the engine's event and readout words back out to the per-lane instances.
type LanePolicies struct {
	kind   Kind
	layout *surfacecode.Layout
	pols   []Policy
	plans  []circuit.Plan

	plannedWord []uint64 // [NumData] lanes scheduling an LRC on q
	lrcTotal    int64    // LRCs planned this round, summed over active lanes

	// Fan-out scratch, reused across lanes: policies must consume RoundInfo
	// slices synchronously (they all do — see Policy.Observe).
	events []uint8
	mlPar  []sim.MLClass
	truth  []bool
}

// NewLanePolicies builds one policy instance of the given kind per lane.
// lanes must be circuit.WordLanes, the width of one batch word.
func NewLanePolicies(k Kind, l *surfacecode.Layout, proto circuit.Protocol, lanes int) *LanePolicies {
	if lanes != circuit.WordLanes {
		panic(fmt.Sprintf("core: lane count %d, want %d", lanes, circuit.WordLanes))
	}
	lp := &LanePolicies{
		kind:        k,
		layout:      l,
		pols:        make([]Policy, lanes),
		plans:       make([]circuit.Plan, lanes),
		plannedWord: make([]uint64, l.NumData),
		events:      make([]uint8, l.NumParity),
		mlPar:       make([]sim.MLClass, l.NumParity),
		truth:       make([]bool, l.NumData),
	}
	for i := range lp.pols {
		lp.pols[i] = NewPolicy(k, l, proto)
	}
	return lp
}

// Name identifies the underlying policy in reports.
func (lp *LanePolicies) Name() string { return lp.pols[0].Name() }

// Reset prepares every lane's instance for a new batch of shots.
func (lp *LanePolicies) Reset() {
	for i := range lp.pols {
		lp.pols[i].Reset()
	}
	for q := range lp.plannedWord {
		lp.plannedWord[q] = 0
	}
	lp.lrcTotal = 0
}

// PlanRound returns the per-lane plans for the upcoming round (aliased;
// valid until the next call). Inactive lanes get empty plans.
func (lp *LanePolicies) PlanRound(round int, active circuit.LaneMask) []circuit.Plan {
	for q := range lp.plannedWord {
		lp.plannedWord[q] = 0
	}
	lp.lrcTotal = 0
	for i := range lp.pols {
		bit := uint64(1) << uint(i)
		if active&bit == 0 {
			lp.plans[i] = circuit.Plan{}
			continue
		}
		lp.plans[i] = lp.pols[i].PlanRound(round)
		lp.lrcTotal += int64(len(lp.plans[i].LRCs))
		for _, lrc := range lp.plans[i].LRCs {
			lp.plannedWord[lrc.Data] |= bit
		}
	}
	return lp.plans
}

// PlannedWord returns the lanes whose current plan schedules an LRC on data
// qubit q.
func (lp *LanePolicies) PlannedWord(q int) uint64 { return lp.plannedWord[q] }

// LRCTotal returns the number of LRCs in the current round's plans, summed
// over active lanes.
func (lp *LanePolicies) LRCTotal() int64 { return lp.lrcTotal }

// Observe fans the round's packed classical record out to each active
// lane's policy instance. Only the slices the policy kind actually reads
// are unpacked: detection events for ERASER (+M), the multi-level planes
// for ERASER+M, ground-truth leakage for Optimal.
func (lp *LanePolicies) Observe(info LaneRoundInfo) {
	needEvents := lp.kind == PolicyEraser || lp.kind == PolicyEraserM
	needML := lp.kind == PolicyEraserM && info.MLParityLeak != nil
	needTruth := lp.kind == PolicyOptimal
	if !needEvents && !needML && !needTruth {
		return // static policies ignore observations
	}
	for i := range lp.pols {
		sh := uint(i)
		if (info.Active>>sh)&1 == 0 {
			continue
		}
		ri := RoundInfo{Round: info.Round}
		if needEvents {
			for s := range lp.events {
				lp.events[s] = uint8((info.Events[s] >> sh) & 1)
			}
			ri.Events = lp.events
		}
		if needML {
			for s := range lp.mlPar {
				switch {
				case (info.MLParityLeak[s]>>sh)&1 == 1:
					lp.mlPar[s] = sim.MLLeak
				case info.MLParityVal != nil && (info.MLParityVal[s]>>sh)&1 == 1:
					lp.mlPar[s] = sim.ML1
				default:
					lp.mlPar[s] = sim.ML0
				}
			}
			ri.MLParity = lp.mlPar
		}
		if needTruth {
			for q := range lp.truth {
				lp.truth[q] = (info.TrueLeakedData[q]>>sh)&1 == 1
			}
			ri.TrueLeakedData = lp.truth
		}
		lp.pols[i].Observe(ri)
	}
}
