// Package core implements the ERASER microarchitecture (Sections 4.2-4.6 of
// the paper) and every LRC scheduling policy evaluated against it. The
// Leakage Speculation Block (LSB) marks data qubits as likely leaked in a
// Leakage Tracking Table (LTT) when at least half of their neighboring
// parity checks flip; the Dynamic LRC Insertion (DLI) block assigns each
// speculated qubit a parity qubit through a primary/backup SWAP Lookup
// Table while a Parity-qubit Usage Tracking Table (PUTT) keeps parity
// qubits that swapped last round out of the pool so their own leakage can be
// flushed by a normal measure-and-reset. The QEC Schedule Generator (QSG) is
// realized by circuit.Builder, which turns the resulting plan into the next
// round's operation sequence.
package core

import (
	"repro/internal/analytic"
	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/surfacecode"
)

// Ablation switches off or retunes one of ERASER's design choices, for the
// ablation studies of Insight #2 and Sections 4.2-4.3. The zero value is the
// paper's design. It applies to ERASER and ERASER+M only.
type Ablation struct {
	// Threshold, when positive, replaces the LSB's ceil(n/2) speculation
	// cutoff with min(Threshold, n) flipped checks of a qubit's n.
	Threshold int
	// NoPUTT disables the parity-qubit cooldown.
	NoPUTT bool
	// NoBackup disables the backup SWAP Lookup Table entries.
	NoBackup bool
}

// cutoff is the number of flipped checks, of a data qubit's n, at which the
// LSB speculates leakage.
func (a Ablation) cutoff(n int) int {
	if a.Threshold > 0 {
		return min(a.Threshold, n)
	}
	return analytic.SpeculationThreshold(n)
}

// LSB is the Leakage Speculation Block together with its Leakage Tracking
// Table. One entry per data qubit; an entry stays set until an LRC is
// performed on the qubit.
type LSB struct {
	layout *surfacecode.Layout
	// ltt is the Leakage Tracking Table: true marks a data qubit speculated
	// (or, with multi-level readout, observed) as leaked.
	ltt []bool
	// threshold caches the speculation cutoff per data qubit:
	// ceil(neighbors/2) (Section 4.2.1) unless ablated.
	threshold []int
	// multiLevel enables the ERASER+M rule: a parity wire classified |L>
	// marks every adjacent data qubit (Section 4.6.1).
	multiLevel bool
}

// NewLSB builds the block. multiLevel selects ERASER+M behavior.
func NewLSB(l *surfacecode.Layout, multiLevel bool) *LSB {
	b := &LSB{
		layout:     l,
		ltt:        make([]bool, l.NumData),
		threshold:  make([]int, l.NumData),
		multiLevel: multiLevel,
	}
	b.ablate(Ablation{})
	return b
}

// ablate sets every data qubit's speculation cutoff from a.
func (b *LSB) ablate(a Ablation) {
	for q := range b.threshold {
		b.threshold[q] = a.cutoff(len(b.layout.DataStabs[q]))
	}
}

// Reset clears the LTT for a new shot.
func (b *LSB) Reset() {
	for i := range b.ltt {
		b.ltt[i] = false
	}
}

// Observe updates the LTT from the current round's detection events.
// hadLRC[q] reports whether data qubit q received an LRC in the round that
// produced this syndrome: any leakage on it was just removed, so its entry
// is cleared and no fresh speculation is made for it (Section 4.2.1).
func (b *LSB) Observe(events []uint8, mlParity []sim.MLClass, hadLRC []bool) {
	for q := 0; q < b.layout.NumData; q++ {
		if hadLRC[q] {
			b.ltt[q] = false
			continue
		}
		flips := 0
		for _, s := range b.layout.DataStabs[q] {
			if events[s] != 0 {
				flips++
			}
		}
		if flips >= b.threshold[q] {
			b.ltt[q] = true
		}
	}
	if b.multiLevel && mlParity != nil {
		for s := range b.layout.Stabilizers {
			if mlParity[s] != sim.MLLeak {
				continue
			}
			for _, q := range b.layout.Stabilizers[s].Data {
				if !hadLRC[q] {
					b.ltt[q] = true
				}
			}
		}
	}
}

// Speculated returns the LTT (aliased; callers must not modify it).
func (b *LSB) Speculated() []bool { return b.ltt }

// DLI is the Dynamic LRC Insertion block with its Parity-qubit Usage
// Tracking Table. Schedule resolves the SWAP assignment for a request set in
// a single pass over the SWAP Lookup Table, the same constant-depth dataflow
// the RTL implements.
type DLI struct {
	layout *surfacecode.Layout
	// putt marks parity qubits (by stabilizer index) that participated in an
	// LRC in the previous round and are therefore held out this round.
	putt []bool
	// usePUTT is off for the idealized policy, for DQLR and under
	// Ablation.NoPUTT.
	usePUTT bool
	// useBackup is off under Ablation.NoBackup.
	useBackup bool

	used []bool // scratch: parity qubits taken this round
}

// NewDLI builds the block with PUTT and backup entries enabled.
func NewDLI(l *surfacecode.Layout) *DLI {
	return &DLI{
		layout:    l,
		putt:      make([]bool, l.NumParity),
		usePUTT:   true,
		useBackup: true,
		used:      make([]bool, l.NumParity),
	}
}

// Reset clears the PUTT for a new shot.
func (d *DLI) Reset() {
	for i := range d.putt {
		d.putt[i] = false
	}
}

// Schedule assigns a parity qubit to every requested data qubit that can get
// one this round, appending to dst and returning it. Requests that lose both
// their primary and backup parity qubits are left unscheduled (their LTT
// entries persist, so they retry next round). The PUTT is updated to the
// parity qubits used by the returned plan.
func (d *DLI) Schedule(requests []bool, dst []circuit.LRC) []circuit.LRC {
	l := d.layout
	for i := range d.used {
		d.used[i] = false
	}
	avail := func(s int) bool {
		if d.used[s] {
			return false
		}
		if d.usePUTT && d.putt[s] {
			return false
		}
		return true
	}
	for q := 0; q < l.NumData; q++ {
		if !requests[q] {
			continue
		}
		s := l.SwapPrimary[q]
		if !avail(s) {
			s = -1
			if d.useBackup && l.SwapBackup[q] >= 0 && avail(l.SwapBackup[q]) {
				s = l.SwapBackup[q]
			}
		}
		if s < 0 {
			continue
		}
		d.used[s] = true
		dst = append(dst, circuit.LRC{Data: q, Stab: s})
	}
	copy(d.putt, d.used)
	return dst
}
