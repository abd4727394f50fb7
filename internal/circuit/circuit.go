// Package circuit defines the gate-level intermediate representation for
// syndrome extraction rounds and builds the three round variants the ERASER
// paper uses: plain rounds, rounds with SWAP-based leakage reduction circuits
// (LRCs) on a chosen subset of data qubits, and rounds using Google's DQLR
// protocol (Appendix A.2). The builder plays the role of the paper's QEC
// Schedule Generator datapath: given the Dynamic LRC Insertion block's plan
// it emits the concrete operation sequence for the next round.
package circuit

import "repro/internal/surfacecode"

// OpKind enumerates the primitive operations understood by the simulator.
type OpKind uint8

const (
	// OpReset resets a qubit to |0>, removing any leakage; the simulator
	// applies an initialization error with probability p afterwards.
	OpReset OpKind = iota
	// OpH is a Hadamard on Q0.
	OpH
	// OpCNOT is a CNOT with control Q0 and target Q1.
	OpCNOT
	// OpMeasure measures Q0 in the Z basis. Stab tags the stabilizer whose
	// outcome this measurement carries; DataWire marks LRC measurements that
	// read the stabilizer outcome off the swapped data qubit.
	OpMeasure
	// OpCondReturn is the ERASER+M conditional swap-back (Section 4.6.2):
	// if the LRC data-qubit measurement classified |L>, the QSG squashes the
	// return SWAP and resets the parity qubit instead; otherwise the state
	// held on the parity qubit is returned with two CNOTs (the data qubit is
	// freshly reset, so a full three-CNOT SWAP is unnecessary).
	OpCondReturn
	// OpSwapReturn unconditionally returns the parity qubit's held state to
	// the freshly reset data qubit with two CNOTs (plain ERASER / Always).
	OpSwapReturn
	// OpLeakISWAP is DQLR's LeakageISWAP between data qubit Q0 and parity
	// qubit Q1: it moves leakage from the data qubit to the parity qubit and
	// can excite the data qubit if the preceding parity reset failed.
	OpLeakISWAP
)

// Op is one primitive operation. Q1 and Stab are -1 when unused.
type Op struct {
	Kind     OpKind
	Q0, Q1   int
	Stab     int
	DataWire bool
}

// WordLanes is the number of shot lanes packed into one simulator word. It is
// the single definition of the lane width: the batch engine, the decoder's
// per-lane collectors and the experiment harness's work-unit size all derive
// from it.
const WordLanes = 64

// LaneMask is the lane mask of a masked op: bit i covers shot lane i of the
// 64-lane batch word.
type LaneMask = uint64

// LaneMaskFor returns the mask selecting the first n lanes (the active lanes
// of a partial final batch), n in [0, WordLanes]; larger n selects every lane.
func LaneMaskFor(n int) LaneMask {
	if n >= WordLanes {
		return ^LaneMask(0)
	}
	return (LaneMask(1) << uint(n)) - 1
}

// MaskedOp pairs an Op with the lane mask of batch-simulator shots it
// applies to: a set bit means the corresponding shot lane executes the
// operation. The batch engines run masked sequences produced by
// Builder.MaskedRound, which lets adaptive policies with per-shot plans share
// one word-parallel round.
type MaskedOp struct {
	Op   Op
	Mask LaneMask
}

// LRC pairs a data qubit with the stabilizer whose parity qubit it swaps
// with (SWAP LRC) or performs the DQLR protocol with.
type LRC struct {
	Data, Stab int
}

// Protocol selects the leakage-removal primitive used for planned LRCs.
type Protocol uint8

const (
	// ProtocolSwap is the SWAP-based LRC of the main text (Figure 4(b)).
	ProtocolSwap Protocol = iota
	// ProtocolDQLR is Google's DQLR protocol (Figure 19(a)).
	ProtocolDQLR
)

// String names the protocol.
func (p Protocol) String() string {
	if p == ProtocolDQLR {
		return "dqlr"
	}
	return "swap"
}

// Plan is the per-round output of an LRC scheduling policy.
type Plan struct {
	// LRCs lists the data qubits receiving leakage removal this round, each
	// with its assigned parity qubit (stabilizer index). At most one LRC per
	// data qubit and per stabilizer.
	LRCs []LRC
	// Protocol selects SWAP LRCs or DQLR.
	Protocol Protocol
	// CondReturn enables the ERASER+M conditional swap-back.
	CondReturn bool
}

// Builder assembles the operation list for successive rounds of a memory
// experiment on a fixed layout. It reuses its internal buffer, so the slice
// returned by Round is only valid until the next call.
type Builder struct {
	layout *surfacecode.Layout
	ops    []Op
	// lrcOf maps stabilizer index -> planned data qubit (or -1).
	lrcOf []int

	// Masked-round state: per stabilizer, the data qubits LRC'd with it this
	// round and the lanes requesting each pairing.
	mops     []MaskedOp
	laneLRCs [][]laneLRC
	laneMask []LaneMask // union of LRC lane masks per stabilizer
}

// laneLRC is one merged (data qubit, lane set) LRC entry of a stabilizer.
type laneLRC struct {
	data int
	mask LaneMask
}

// NewBuilder returns a Builder for the layout.
func NewBuilder(l *surfacecode.Layout) *Builder {
	b := &Builder{layout: l, lrcOf: make([]int, l.NumParity)}
	return b
}

// TwoQubitOpsPerParity reports the number of two-qubit operations a parity
// qubit participates in during one round: 4 without an LRC and 9 with one
// (Figure 1(b)); the forward SWAP costs three CNOTs and the return transfer
// two, because the swapped-back data qubit starts in |0>.
func TwoQubitOpsPerParity(withLRC bool) int {
	if withLRC {
		return 9
	}
	return 4
}

// Round builds the operation sequence for one syndrome extraction round.
//
// A plain round is: H on X ancillas; the four-step CNOT schedule; H on X
// ancillas; measure and reset every ancilla. With a SWAP LRC on (D, S) the
// parity state is swapped onto D after extraction, D is measured (carrying
// S's outcome) and reset — removing any leakage on D — and the state held on
// the parity qubit is returned afterwards. The parity qubit itself is not
// reset in an LRC round, which is why the paper's PUTT keeps it out of LRCs
// in the following round. With DQLR the round is extracted and measured as
// usual, then parity qubits are reset, LeakageISWAPped with their data
// qubit, and reset again.
func (b *Builder) Round(plan Plan) []Op {
	l := b.layout
	b.ops = b.ops[:0]
	for i := range b.lrcOf {
		b.lrcOf[i] = -1
	}
	useSwap := plan.Protocol == ProtocolSwap
	if useSwap {
		for _, lrc := range plan.LRCs {
			b.lrcOf[lrc.Stab] = lrc.Data
		}
	}

	// Hadamards opening X-stabilizer extraction.
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		if s.Kind == surfacecode.KindX {
			b.emit(Op{Kind: OpH, Q0: s.Ancilla, Q1: -1, Stab: -1})
		}
	}

	// Four global CNOT steps.
	for step := 0; step < surfacecode.ExtractionSteps; step++ {
		for i := range l.Stabilizers {
			s := &l.Stabilizers[i]
			d := s.Steps[step]
			if d < 0 {
				continue
			}
			if s.Kind == surfacecode.KindZ {
				b.emit(Op{Kind: OpCNOT, Q0: d, Q1: s.Ancilla, Stab: -1})
			} else {
				b.emit(Op{Kind: OpCNOT, Q0: s.Ancilla, Q1: d, Stab: -1})
			}
		}
	}

	// Forward SWAPs for LRC'd stabilizers (three CNOTs each; disjoint pairs,
	// so ordering between pairs is irrelevant).
	if useSwap {
		for _, lrc := range plan.LRCs {
			p := l.Stabilizers[lrc.Stab].Ancilla
			d := lrc.Data
			b.emit(Op{Kind: OpCNOT, Q0: p, Q1: d, Stab: -1})
			b.emit(Op{Kind: OpCNOT, Q0: d, Q1: p, Stab: -1})
			b.emit(Op{Kind: OpCNOT, Q0: p, Q1: d, Stab: -1})
		}
	}

	// Closing Hadamards: applied to whichever wire holds the X-stabilizer
	// state (the data qubit when an LRC swapped it over).
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		if s.Kind != surfacecode.KindX {
			continue
		}
		wire := s.Ancilla
		if d := b.lrcOf[s.Index]; d >= 0 {
			wire = d
		}
		b.emit(Op{Kind: OpH, Q0: wire, Q1: -1, Stab: -1})
	}

	// Measure + reset the wire carrying each stabilizer outcome.
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		wire, dataWire := s.Ancilla, false
		if d := b.lrcOf[s.Index]; d >= 0 {
			wire, dataWire = d, true
		}
		b.emit(Op{Kind: OpMeasure, Q0: wire, Q1: -1, Stab: s.Index, DataWire: dataWire})
		b.emit(Op{Kind: OpReset, Q0: wire, Q1: -1, Stab: -1})
	}

	// Return transfers for SWAP LRCs.
	if useSwap {
		kind := OpSwapReturn
		if plan.CondReturn {
			kind = OpCondReturn
		}
		for _, lrc := range plan.LRCs {
			p := l.Stabilizers[lrc.Stab].Ancilla
			b.emit(Op{Kind: kind, Q0: p, Q1: lrc.Data, Stab: lrc.Stab})
		}
	}

	// DQLR epilogue: reset parity, LeakageISWAP, reset parity again
	// (Figure 19(a); the first reset already happened above with the normal
	// measure+reset).
	if plan.Protocol == ProtocolDQLR {
		for _, lrc := range plan.LRCs {
			p := l.Stabilizers[lrc.Stab].Ancilla
			b.emit(Op{Kind: OpLeakISWAP, Q0: lrc.Data, Q1: p, Stab: lrc.Stab})
			b.emit(Op{Kind: OpReset, Q0: p, Q1: -1, Stab: -1})
		}
	}

	return b.ops
}

// MaskedRound merges up to WordLanes per-lane round plans into one masked
// operation sequence for the batch simulators. plans[i] is lane i's plan;
// lanes whose bit is clear in active are skipped. Every lane shares the
// identical syndrome-extraction skeleton (opening Hadamards, the four CNOT
// steps, closing Hadamards, measure + reset), emitted once under the full
// active mask; only the LRC operations — forward SWAPs, data-wire
// measurements, return transfers, DQLR epilogues — differ by lane and carry
// the mask of the lanes that planned them. Protocol and CondReturn must agree
// across active lanes that schedule LRCs (they are policy-level constants,
// not per-shot decisions); lanes with empty plans carry no vote, so mixing
// zero-valued idle plans with scheduling lanes is fine. The returned slice
// aliases an internal buffer valid until the next call.
//
// Per stabilizer, the merged (data qubit, lane set) entries are emitted in
// ascending data-qubit order — a canonical order independent of which lanes
// requested each pairing, so the op sequence (and hence the simulator's
// random draws) depends only on the set of plans, not on lane order.
func (b *Builder) MaskedRound(plans []Plan, active LaneMask) []MaskedOp {
	l := b.layout
	b.mops = b.mops[:0]
	if b.laneLRCs == nil {
		b.laneLRCs = make([][]laneLRC, l.NumParity)
		b.laneMask = make([]LaneMask, l.NumParity)
	}
	for i := range b.laneLRCs {
		b.laneLRCs[i] = b.laneLRCs[i][:0]
		b.laneMask[i] = 0
	}

	// Probe Protocol/CondReturn from the first active lane that actually
	// schedules LRCs: both settings only affect LRC ops, and an idle lane's
	// zero-valued plan must not override the scheduling lanes' choice.
	proto, condReturn := ProtocolSwap, false
	for i := range plans {
		if active&(1<<uint(i)) != 0 && len(plans[i].LRCs) != 0 {
			proto, condReturn = plans[i].Protocol, plans[i].CondReturn
			break
		}
	}
	for i := range plans {
		bit := LaneMask(1) << uint(i)
		if active&bit == 0 {
			continue
		}
		for _, lrc := range plans[i].LRCs {
			list := b.laneLRCs[lrc.Stab]
			merged := false
			for j := range list {
				if list[j].data == lrc.Data {
					list[j].mask |= bit
					merged = true
					break
				}
			}
			if !merged {
				list = append(list, laneLRC{lrc.Data, bit})
				// Keep entries sorted by data qubit (see the contract above).
				for j := len(list) - 1; j > 0 && list[j].data < list[j-1].data; j-- {
					list[j], list[j-1] = list[j-1], list[j]
				}
				b.laneLRCs[lrc.Stab] = list
			}
			b.laneMask[lrc.Stab] |= bit
		}
	}
	useSwap := proto == ProtocolSwap

	// Hadamards opening X-stabilizer extraction.
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		if s.Kind == surfacecode.KindX {
			b.emitMasked(Op{Kind: OpH, Q0: s.Ancilla, Q1: -1, Stab: -1}, active)
		}
	}

	// Four global CNOT steps, identical on every lane.
	for step := 0; step < surfacecode.ExtractionSteps; step++ {
		for i := range l.Stabilizers {
			s := &l.Stabilizers[i]
			d := s.Steps[step]
			if d < 0 {
				continue
			}
			if s.Kind == surfacecode.KindZ {
				b.emitMasked(Op{Kind: OpCNOT, Q0: d, Q1: s.Ancilla, Stab: -1}, active)
			} else {
				b.emitMasked(Op{Kind: OpCNOT, Q0: s.Ancilla, Q1: d, Stab: -1}, active)
			}
		}
	}

	// Forward SWAPs, masked to the lanes that planned each pairing.
	if useSwap {
		for si := range b.laneLRCs {
			p := l.Stabilizers[si].Ancilla
			for _, e := range b.laneLRCs[si] {
				b.emitMasked(Op{Kind: OpCNOT, Q0: p, Q1: e.data, Stab: -1}, e.mask)
				b.emitMasked(Op{Kind: OpCNOT, Q0: e.data, Q1: p, Stab: -1}, e.mask)
				b.emitMasked(Op{Kind: OpCNOT, Q0: p, Q1: e.data, Stab: -1}, e.mask)
			}
		}
	}

	// Closing Hadamards on whichever wire holds each X-stabilizer state.
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		if s.Kind != surfacecode.KindX {
			continue
		}
		var swapped LaneMask
		if useSwap {
			swapped = b.laneMask[s.Index]
		}
		if rem := active &^ swapped; rem != 0 {
			b.emitMasked(Op{Kind: OpH, Q0: s.Ancilla, Q1: -1, Stab: -1}, rem)
		}
		if useSwap {
			for _, e := range b.laneLRCs[s.Index] {
				b.emitMasked(Op{Kind: OpH, Q0: e.data, Q1: -1, Stab: -1}, e.mask)
			}
		}
	}

	// Measure + reset the wire carrying each stabilizer outcome. Lanes with
	// an LRC read (and reset) the swapped data qubit and leave the parity
	// qubit untouched, exactly as in the scalar Round.
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		var swapped LaneMask
		if useSwap {
			swapped = b.laneMask[s.Index]
		}
		if rem := active &^ swapped; rem != 0 {
			b.emitMasked(Op{Kind: OpMeasure, Q0: s.Ancilla, Q1: -1, Stab: s.Index}, rem)
			b.emitMasked(Op{Kind: OpReset, Q0: s.Ancilla, Q1: -1, Stab: -1}, rem)
		}
		if useSwap {
			for _, e := range b.laneLRCs[s.Index] {
				b.emitMasked(Op{Kind: OpMeasure, Q0: e.data, Q1: -1, Stab: s.Index, DataWire: true}, e.mask)
				b.emitMasked(Op{Kind: OpReset, Q0: e.data, Q1: -1, Stab: -1}, e.mask)
			}
		}
	}

	// Return transfers for SWAP LRCs.
	if useSwap {
		kind := OpSwapReturn
		if condReturn {
			kind = OpCondReturn
		}
		for si := range b.laneLRCs {
			p := l.Stabilizers[si].Ancilla
			for _, e := range b.laneLRCs[si] {
				b.emitMasked(Op{Kind: kind, Q0: p, Q1: e.data, Stab: si}, e.mask)
			}
		}
	}

	// DQLR epilogue per planned pairing.
	if proto == ProtocolDQLR {
		for si := range b.laneLRCs {
			p := l.Stabilizers[si].Ancilla
			for _, e := range b.laneLRCs[si] {
				b.emitMasked(Op{Kind: OpLeakISWAP, Q0: e.data, Q1: p, Stab: si}, e.mask)
				b.emitMasked(Op{Kind: OpReset, Q0: p, Q1: -1, Stab: -1}, e.mask)
			}
		}
	}

	return b.mops
}

// FinalMeasurement emits a transversal Z-basis measurement of every data
// qubit, tagged with Stab = -1; the experiment harness folds the outcomes
// into the final detector layer and the logical observable.
func (b *Builder) FinalMeasurement() []Op {
	b.ops = b.ops[:0]
	for q := 0; q < b.layout.NumData; q++ {
		b.emit(Op{Kind: OpMeasure, Q0: q, Q1: -1, Stab: -1})
	}
	return b.ops
}

func (b *Builder) emit(op Op) { b.ops = append(b.ops, op) }

func (b *Builder) emitMasked(op Op, mask LaneMask) {
	b.mops = append(b.mops, MaskedOp{Op: op, Mask: mask})
}

// CountTwoQubitOps returns the number of two-qubit operations in ops,
// counting OpSwapReturn/OpCondReturn as two CNOTs and OpLeakISWAP as one.
func CountTwoQubitOps(ops []Op) int {
	n := 0
	for _, op := range ops {
		switch op.Kind {
		case OpCNOT, OpLeakISWAP:
			n++
		case OpSwapReturn, OpCondReturn:
			n += 2
		}
	}
	return n
}
