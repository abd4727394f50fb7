package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/surfacecode"
)

// RoundInfo is the classical information a policy sees after each syndrome
// extraction round.
type RoundInfo struct {
	// Round is the 1-based index of the round just executed.
	Round int
	// Events holds the detection events per stabilizer.
	Events []uint8
	// MLParity and MLData are the multi-level readout classifications
	// (meaningful only to ERASER+M).
	MLParity []sim.MLClass
	MLData   []sim.MLClass
	// TrueLeakedData is the simulator's ground-truth per-data-qubit leakage
	// at the end of the round. Only the idealized Optimal policy reads it.
	TrueLeakedData []bool
}

// Policy decides, before every syndrome extraction round, which data qubits
// receive leakage removal and with which parity qubits.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset prepares the policy for a new shot.
	Reset()
	// PlanRound returns the LRC plan for the upcoming round (1-based).
	PlanRound(round int) circuit.Plan
	// Observe delivers the classical record of the round just executed.
	Observe(info RoundInfo)
	// PlannedLRC reports whether data qubit q received an LRC in the most
	// recently planned round; the harness uses it for speculation-accuracy
	// accounting.
	PlannedLRC(q int) bool
}

// Kind enumerates the policies evaluated in the paper.
type Kind uint8

const (
	// PolicyNone never schedules leakage removal (the "No LRC" baseline).
	PolicyNone Kind = iota
	// PolicyAlways is the state-of-the-art static schedule: a dense LRC
	// round every other round, with the leftover qubit carried over.
	PolicyAlways
	// PolicyEraser is adaptive scheduling from syndrome speculation.
	PolicyEraser
	// PolicyEraserM adds multi-level readout (ERASER+M).
	PolicyEraserM
	// PolicyOptimal is the idealized oracle: an LRC on exactly the qubits
	// that are actually leaked, as soon as they leak.
	PolicyOptimal
)

// policyNames is the one name table behind Kind.String, PolicyName and every
// Policy's Name: per kind, its name under SWAP LRCs and under DQLR.
var policyNames = [...][2]string{
	PolicyNone:    {"NoLRC", "NoLRC"},
	PolicyAlways:  {"Always-LRCs", "DQLR"},
	PolicyEraser:  {"ERASER", "ERASER-DQLR"},
	PolicyEraserM: {"ERASER+M", "ERASER+M-DQLR"},
	PolicyOptimal: {"Optimal", "Optimal-DQLR"},
}

// String names the policy kind (its name under SWAP LRCs).
func (k Kind) String() string { return PolicyName(k, circuit.ProtocolSwap) }

// PolicyName is the report name of the policy NewPolicy(k, l, proto) builds,
// without building it: the value that policy's Name returns.
func PolicyName(k Kind, proto circuit.Protocol) string {
	if int(k) >= len(policyNames) {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	if proto == circuit.ProtocolDQLR {
		return policyNames[k][1]
	}
	return policyNames[k][0]
}

// NewPolicy constructs the policy of the given kind using the given
// leakage-removal protocol (SWAP LRCs in the main text, DQLR in Appendix
// A.2).
func NewPolicy(k Kind, l *surfacecode.Layout, proto circuit.Protocol) Policy {
	switch k {
	case PolicyNone:
		return &noLRC{}
	case PolicyAlways:
		return newAlways(l, proto)
	case PolicyEraser:
		return NewEraser(l, false, proto)
	case PolicyEraserM:
		return NewEraser(l, true, proto)
	case PolicyOptimal:
		return newOptimal(l, proto)
	default:
		panic(fmt.Sprintf("core: unknown policy kind %d", k))
	}
}

// ---------------------------------------------------------------- NoLRC --

type noLRC struct{}

func (*noLRC) Name() string               { return PolicyNone.String() }
func (*noLRC) Reset()                     {}
func (*noLRC) PlanRound(int) circuit.Plan { return circuit.Plan{} }
func (*noLRC) Observe(RoundInfo)          {}
func (*noLRC) PlannedLRC(int) bool        { return false }

// --------------------------------------------------------------- Always --

// always is the state-of-the-art static policy (Section 2.4, Figure 3):
// round 1 runs without LRCs so every parity qubit is flushed; even rounds
// swap the d*d-1 matched data qubits; odd rounds from round 3 on carry the
// single leftover data qubit's LRC. With DQLR the dense protocol runs every
// round (Appendix A.2), alternating in the leftover qubit.
type always struct {
	layout  *surfacecode.Layout
	proto   circuit.Protocol
	planned []bool
	pairs   []circuit.LRC
}

func newAlways(l *surfacecode.Layout, proto circuit.Protocol) *always {
	return &always{layout: l, proto: proto, planned: make([]bool, l.NumData)}
}

func (a *always) Name() string { return PolicyName(PolicyAlways, a.proto) }

func (a *always) Reset() {}

func (a *always) PlanRound(round int) circuit.Plan {
	a.pairs = a.pairs[:0]
	for i := range a.planned {
		a.planned[i] = false
	}
	dense := round%2 == 0
	carry := round%2 == 1 && round >= 3
	if a.proto == circuit.ProtocolDQLR {
		// DQLR runs every round; the leftover qubit still alternates since
		// there are d^2 data qubits and only d^2-1 parity qubits.
		dense = true
		carry = round%2 == 1
	}
	if dense {
		for q := 0; q < a.layout.NumData; q++ {
			if s := a.layout.AlwaysAssign[q]; s >= 0 {
				a.pairs = append(a.pairs, circuit.LRC{Data: q, Stab: s})
				a.planned[q] = true
			}
		}
	}
	if carry && a.layout.Leftover >= 0 {
		q := a.layout.Leftover
		a.pairs = append(a.pairs, circuit.LRC{Data: q, Stab: a.layout.SwapPrimary[q]})
		a.planned[q] = true
	}
	return circuit.Plan{LRCs: a.pairs, Protocol: a.proto}
}

func (a *always) Observe(RoundInfo)     {}
func (a *always) PlannedLRC(q int) bool { return a.planned[q] }

// --------------------------------------------------------------- ERASER --

// Eraser is the adaptive policy: LSB speculation feeding DLI scheduling.
// With multiLevel it becomes ERASER+M, also enabling the QSG's conditional
// swap-back.
type Eraser struct {
	layout     *surfacecode.Layout
	lsb        *LSB
	dli        *DLI
	multiLevel bool
	proto      circuit.Protocol

	planned []bool // data qubits given an LRC in the current plan
	pairs   []circuit.LRC
}

// NewEraser builds ERASER (multiLevel=false) or ERASER+M (true).
func NewEraser(l *surfacecode.Layout, multiLevel bool, proto circuit.Protocol) *Eraser {
	e := &Eraser{
		layout:     l,
		lsb:        NewLSB(l, multiLevel),
		dli:        NewDLI(l),
		multiLevel: multiLevel,
		proto:      proto,
		planned:    make([]bool, l.NumData),
	}
	e.Ablate(Ablation{})
	return e
}

// Ablate retunes the LSB cutoff, the PUTT and the backup entries to a; the
// zero Ablation restores the paper's design.
func (e *Eraser) Ablate(a Ablation) {
	e.lsb.ablate(a)
	// DQLR resets the parity qubit inside the protocol, so the PUTT
	// cooldown is unnecessary.
	e.dli.usePUTT = !a.NoPUTT && e.proto != circuit.ProtocolDQLR
	e.dli.useBackup = !a.NoBackup
}

// Name reports ERASER / ERASER+M with a protocol suffix for DQLR.
func (e *Eraser) Name() string {
	if e.multiLevel {
		return PolicyName(PolicyEraserM, e.proto)
	}
	return PolicyName(PolicyEraser, e.proto)
}

// Reset clears the LTT and PUTT.
func (e *Eraser) Reset() {
	e.lsb.Reset()
	e.dli.Reset()
	for i := range e.planned {
		e.planned[i] = false
	}
}

// PlanRound schedules LRCs for every currently speculated data qubit that
// can be paired with an available parity qubit.
func (e *Eraser) PlanRound(round int) circuit.Plan {
	e.pairs = e.dli.Schedule(e.lsb.Speculated(), e.pairs[:0])
	for i := range e.planned {
		e.planned[i] = false
	}
	for _, lrc := range e.pairs {
		e.planned[lrc.Data] = true
	}
	return circuit.Plan{
		LRCs:       e.pairs,
		Protocol:   e.proto,
		CondReturn: e.multiLevel && e.proto == circuit.ProtocolSwap,
	}
}

// Observe feeds the round's detection events (and, for ERASER+M, the
// multi-level classifications) to the LSB.
func (e *Eraser) Observe(info RoundInfo) {
	var ml []sim.MLClass
	if e.multiLevel {
		ml = info.MLParity
	}
	e.lsb.Observe(info.Events, ml, e.planned)
}

// PlannedLRC reports whether q had an LRC in the current plan.
func (e *Eraser) PlannedLRC(q int) bool { return e.planned[q] }

// -------------------------------------------------------------- Optimal --

// optimal is the idealized scheduling policy of Section 3.2: it reads the
// simulator's ground-truth leakage and schedules an LRC on exactly the
// leaked data qubits in the next round. It bypasses the PUTT (an idealized
// control processor) but still resolves parity conflicts through the SWAP
// Lookup Table since two data qubits can never swap with the same parity
// qubit in the same round.
type optimal struct {
	layout  *surfacecode.Layout
	dli     *DLI
	proto   circuit.Protocol
	truth   []bool
	planned []bool
	pairs   []circuit.LRC
}

func newOptimal(l *surfacecode.Layout, proto circuit.Protocol) *optimal {
	o := &optimal{
		layout:  l,
		dli:     NewDLI(l),
		proto:   proto,
		truth:   make([]bool, l.NumData),
		planned: make([]bool, l.NumData),
	}
	o.dli.usePUTT = false
	return o
}

func (o *optimal) Name() string { return PolicyName(PolicyOptimal, o.proto) }

func (o *optimal) Reset() {
	o.dli.Reset()
	for i := range o.truth {
		o.truth[i] = false
		o.planned[i] = false
	}
}

func (o *optimal) PlanRound(round int) circuit.Plan {
	o.pairs = o.dli.Schedule(o.truth, o.pairs[:0])
	for i := range o.planned {
		o.planned[i] = false
	}
	for _, lrc := range o.pairs {
		o.planned[lrc.Data] = true
	}
	return circuit.Plan{LRCs: o.pairs, Protocol: o.proto}
}

func (o *optimal) Observe(info RoundInfo) {
	copy(o.truth, info.TrueLeakedData)
}

func (o *optimal) PlannedLRC(q int) bool { return o.planned[q] }
