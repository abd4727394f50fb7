package core

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/surfacecode"
)

// LaneRoundInfo is the batch-native classical record of one round: the same
// information RoundInfo carries per shot, packed one 64-lane word per
// stabilizer (or data qubit) exactly as the batch simulator returns it, so
// the engine's outputs feed the word-parallel planner unchanged.
type LaneRoundInfo struct {
	// Round is the 1-based index of the round just executed.
	Round int
	// Active masks the lanes holding real shots (a partial final batch
	// leaves high lanes inactive). Inactive lanes' planner state is left
	// untouched.
	Active circuit.LaneMask
	// Events holds the detection-event word per stabilizer.
	Events []uint64
	// MLParityLeak and MLParityVal are the multi-level readout bit-planes
	// per stabilizer: is-leak and value. Only ERASER+M reads them, and only
	// the is-leak plane matters to its speculation rule.
	MLParityLeak []uint64
	MLParityVal  []uint64
	// TrueLeakedData holds the ground-truth leakage word per data qubit.
	// Only the idealized Optimal policy reads it.
	TrueLeakedData []uint64
}

// LanePolicies is the word-parallel form of the adaptive policies (ERASER,
// ERASER+M, Optimal) for one 64-lane batch. Bit i of every word is shot
// lane i, and lane i evolves exactly as an independent scalar instance of
// the policy would: the LSB's Leakage Tracking Table is one word per data
// qubit, speculation is a bit-sliced ">= ceil(n/2) neighbouring checks
// flipped" test, and DLI is the primary/backup SWAP Lookup Table walked in
// qubit order with the PUTT and the round's used parity qubits as words
// (Sections 4.2-4.3; the same bitwise dataflow as internal/rtl). PlanWords
// compiles the round's plan straight into a circuit.LanePlan for
// circuit.Builder.MaskedRoundLanes; PlannedWords and LRCTotal feed the
// harness's decision accounting. PlanRound materialises per-lane plans from
// the words for callers that want them (circuit.Builder.MaskedRound).
type LanePolicies struct {
	kind     Kind
	layout   *surfacecode.Layout
	usePUTT  bool
	noBackup bool

	// Per data qubit: the LTT word (Optimal: the ground-truth word of the
	// last observed round), the lanes planning an LRC this round, and the
	// subset of those using SwapBackup[q] (the rest use SwapPrimary[q]).
	ltt       []uint64
	planned   []uint64
	backup    []uint64
	threshold []int // speculation cutoff per data qubit

	// Per parity qubit (stabilizer index): the PUTT word and the lanes that
	// took it in the round being planned.
	putt []uint64
	used []uint64

	// cands[s] lists the data qubits whose primary or backup parity qubit is
	// s, ascending — the order circuit.LanePlan requires.
	cands [][]candidate

	plan     circuit.LanePlan
	lrcTotal int64

	// PlanRound adapter output: per-lane plans over one backing array,
	// lane i owning a fixed-capacity segment.
	plans   []circuit.Plan
	lrcsBuf []circuit.LRC
}

// candidate is one data qubit that may be LRC'd with a given stabilizer.
type candidate struct {
	data   int
	backup bool // the stabilizer is the qubit's backup, not its primary
}

// NewLanePolicies builds the word-parallel planner of an adaptive policy
// kind. lanes must be circuit.WordLanes, the width of one batch word. Static
// kinds (NoLRC, Always) plan identically for every lane and use NewPolicy.
func NewLanePolicies(k Kind, l *surfacecode.Layout, proto circuit.Protocol, lanes int) *LanePolicies {
	if lanes != circuit.WordLanes {
		panic(fmt.Sprintf("core: lane count %d, want %d", lanes, circuit.WordLanes))
	}
	if k != PolicyEraser && k != PolicyEraserM && k != PolicyOptimal {
		panic(fmt.Sprintf("core: %v is not an adaptive policy", k))
	}
	lp := &LanePolicies{
		kind:      k,
		layout:    l,
		ltt:       make([]uint64, l.NumData),
		planned:   make([]uint64, l.NumData),
		backup:    make([]uint64, l.NumData),
		threshold: make([]int, l.NumData),
		putt:      make([]uint64, l.NumParity),
		used:      make([]uint64, l.NumParity),
		cands:     make([][]candidate, l.NumParity),
		plan: circuit.LanePlan{
			LRCs:       make([][]circuit.LaneLRC, l.NumParity),
			Protocol:   proto,
			CondReturn: k == PolicyEraserM && proto == circuit.ProtocolSwap,
		},
	}
	lp.Ablate(Ablation{})
	for q := 0; q < l.NumData; q++ {
		lp.cands[l.SwapPrimary[q]] = append(lp.cands[l.SwapPrimary[q]], candidate{data: q})
		if b := l.SwapBackup[q]; b >= 0 {
			lp.cands[b] = append(lp.cands[b], candidate{data: q, backup: true})
		}
	}
	for s := range lp.cands {
		lp.plan.LRCs[s] = make([]circuit.LaneLRC, 0, len(lp.cands[s]))
	}
	return lp
}

// Ablate retunes every lane's LSB cutoff, PUTT and backup entries to a, as
// Eraser.Ablate does for one shot; it applies to ERASER and ERASER+M.
func (lp *LanePolicies) Ablate(a Ablation) {
	for q := range lp.threshold {
		lp.threshold[q] = a.cutoff(len(lp.layout.DataStabs[q]))
	}
	// Optimal is an idealized controller and DQLR resets the parity qubit
	// inside the protocol: neither needs the PUTT cooldown.
	lp.usePUTT = !a.NoPUTT && lp.kind != PolicyOptimal && lp.plan.Protocol != circuit.ProtocolDQLR
	lp.noBackup = a.NoBackup
}

// Name identifies the underlying policy in reports.
func (lp *LanePolicies) Name() string { return PolicyName(lp.kind, lp.plan.Protocol) }

// Reset clears every lane's LTT, PUTT and plan for a new batch of shots.
func (lp *LanePolicies) Reset() {
	clear(lp.ltt)
	clear(lp.planned)
	clear(lp.backup)
	clear(lp.putt)
	lp.lrcTotal = 0
}

// PlanWords runs DLI for every active lane at once and returns the round's
// word-form plan (aliased; valid until the next call). Data qubits are
// served in ascending order, as in DLI.Schedule: a requesting lane takes its
// primary parity qubit unless this round already used it or (with the PUTT)
// last round did, else its backup on the same rule, else it waits with its
// LTT entry intact.
func (lp *LanePolicies) PlanWords(active circuit.LaneMask) *circuit.LanePlan {
	l := lp.layout
	clear(lp.used)
	var total int
	for q, req := range lp.ltt {
		req &= active
		var take, back uint64
		if req != 0 {
			p := l.SwapPrimary[q]
			take = req &^ lp.used[p]
			if lp.usePUTT {
				take &^= lp.putt[p]
			}
			lp.used[p] |= take
			if b := l.SwapBackup[q]; b >= 0 && req != take && !lp.noBackup {
				back = req &^ take &^ lp.used[b]
				if lp.usePUTT {
					back &^= lp.putt[b]
				}
				lp.used[b] |= back
			}
			take |= back
			total += bits.OnesCount64(take)
		}
		lp.planned[q], lp.backup[q] = take, back
	}
	if lp.usePUTT {
		for s, u := range lp.used {
			lp.putt[s] = lp.putt[s]&^active | u
		}
	}
	lp.lrcTotal = int64(total)

	for s, cs := range lp.cands {
		list := lp.plan.LRCs[s][:0]
		for _, c := range cs {
			m := lp.planned[c.data] &^ lp.backup[c.data]
			if c.backup {
				m = lp.backup[c.data]
			}
			if m != 0 {
				list = append(list, circuit.LaneLRC{Data: c.data, Mask: m})
			}
		}
		lp.plan.LRCs[s] = list
	}
	return &lp.plan
}

// PlanRound is the per-lane adapter over PlanWords: it returns lane i's plan
// at index i (aliased; valid until the next call), each listing its LRCs in
// ascending data-qubit order exactly as a scalar instance of the policy
// would. Inactive lanes get empty plans. The round number is accepted for
// symmetry with Policy.PlanRound; adaptive plans do not depend on it.
func (lp *LanePolicies) PlanRound(round int, active circuit.LaneMask) []circuit.Plan {
	lp.PlanWords(active)
	l := lp.layout
	seg := l.NumData // one lane plans at most one LRC per data qubit
	if lp.plans == nil {
		lp.plans = make([]circuit.Plan, circuit.WordLanes)
		lp.lrcsBuf = make([]circuit.LRC, circuit.WordLanes*seg)
	}
	for i := range lp.plans {
		lp.plans[i] = circuit.Plan{}
		if active&(1<<uint(i)) != 0 {
			lp.plans[i] = circuit.Plan{
				LRCs:       lp.lrcsBuf[i*seg : i*seg : (i+1)*seg],
				Protocol:   lp.plan.Protocol,
				CondReturn: lp.plan.CondReturn,
			}
		}
	}
	for q, w := range lp.planned {
		for m := w; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			s := l.SwapPrimary[q]
			if lp.backup[q]>>uint(i)&1 != 0 {
				s = l.SwapBackup[q]
			}
			lp.plans[i].LRCs = append(lp.plans[i].LRCs, circuit.LRC{Data: q, Stab: s})
		}
	}
	return lp.plans
}

// PlannedWord returns the lanes whose current plan schedules an LRC on data
// qubit q.
func (lp *LanePolicies) PlannedWord(q int) uint64 { return lp.planned[q] }

// PlannedWords returns PlannedWord for every data qubit (aliased; callers
// must not modify it).
func (lp *LanePolicies) PlannedWords() []uint64 { return lp.planned }

// LRCTotal returns the number of LRCs in the current round's plan, summed
// over active lanes.
func (lp *LanePolicies) LRCTotal() int64 { return lp.lrcTotal }

// Observe updates every active lane's LTT from the round's packed classical
// record. ERASER counts each data qubit's flipped neighbouring checks with a
// bit-sliced counter and speculates where the count reaches the threshold;
// ERASER+M also marks every data neighbour of a parity qubit read out as
// |L>. Lanes that just ran an LRC on a qubit clear its entry instead
// (Section 4.2.1). Optimal copies the ground-truth words.
func (lp *LanePolicies) Observe(info LaneRoundInfo) {
	act := info.Active
	if lp.kind == PolicyOptimal {
		for q, w := range info.TrueLeakedData {
			lp.ltt[q] = lp.ltt[q]&^act | w&act
		}
		return
	}
	ml := info.MLParityLeak
	if lp.kind != PolicyEraserM {
		ml = nil
	}
	for q, stabs := range lp.layout.DataStabs {
		// c2c1c0 is the per-lane flip count; a qubit has at most four
		// neighbouring checks, so three bit-planes never overflow.
		var c0, c1, c2, leak uint64
		for _, s := range stabs {
			e := info.Events[s]
			carry := c0 & e
			c0 ^= e
			c2 |= c1 & carry
			c1 ^= carry
			if ml != nil {
				leak |= ml[s]
			}
		}
		spec := atLeast(c0, c1, c2, lp.threshold[q]) | leak
		next := (lp.ltt[q] | spec) &^ lp.planned[q]
		lp.ltt[q] = lp.ltt[q]&^act | next&act
	}
}

// atLeast returns the lanes whose 3-bit count c2c1c0 is >= t, comparing from
// the most significant plane down.
func atLeast(c0, c1, c2 uint64, t int) uint64 {
	if t <= 0 {
		return ^uint64(0)
	}
	if t > 7 {
		return 0
	}
	var gt uint64
	eq := ^uint64(0)
	for b, c := range [3]uint64{c2, c1, c0} {
		if t>>uint(2-b)&1 != 0 {
			eq &= c
		} else {
			gt |= eq & c
		}
	}
	return gt | eq
}
