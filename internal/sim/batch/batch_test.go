package batch

import (
	"math/bits"
	"testing"

	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

func noiseless() noise.Params { return noise.Standard(0) }

func newBatch(d int, n noise.Params, seed uint64) (*Simulator, *circuit.Builder) {
	l := surfacecode.MustNew(d)
	s := New(l, n, surfacecode.KindZ)
	s.Reset(stats.NewRNG(seed, 0))
	return s, circuit.NewBuilder(l)
}

// TestLaneMask checks the partial-batch mask helper the batch workers use.
func TestLaneMask(t *testing.T) {
	if circuit.LaneMaskFor(0) != 0 || circuit.LaneMaskFor(64) != AllLanes || circuit.LaneMaskFor(100) != AllLanes {
		t.Fatal("LaneMaskFor extremes wrong")
	}
	if m := circuit.LaneMaskFor(3); m != 0b111 {
		t.Fatalf("LaneMaskFor(3) = %b", m)
	}
}

// TestNoiselessRoundsAreQuiet mirrors the scalar simulator's test: with zero
// noise every detector word stays zero across plain, SWAP-LRC and DQLR
// rounds, and the observable is unflipped in every lane.
func TestNoiselessRoundsAreQuiet(t *testing.T) {
	l := surfacecode.MustNew(5)
	plans := []circuit.Plan{
		{},
		{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]},
			{Data: 12, Stab: l.SwapPrimary[12]}}},
		{LRCs: []circuit.LRC{{Data: 7, Stab: l.SwapPrimary[7]}}, Protocol: circuit.ProtocolDQLR},
	}
	s := New(l, noiseless(), surfacecode.KindZ)
	s.Reset(stats.NewRNG(1, 1))
	b := circuit.NewBuilder(l)
	for r := 1; r <= 8; r++ {
		events := s.RunRound(b.Round(plans[(r-1)%len(plans)]))
		for i, e := range events {
			if e != 0 {
				t.Fatalf("round %d: event word %b on stabilizer %d without noise", r, e, i)
			}
		}
	}
	final := s.FinalMeasure(b.FinalMeasurement())
	for i, w := range s.FinalDetectors(final) {
		if w != 0 {
			t.Fatalf("final detector %d fired without noise: %b", i, w)
		}
	}
	if obs := s.ObservableFlip(final); obs != 0 {
		t.Fatalf("observable flipped without noise: %b", obs)
	}
}

// TestInjectedXErrorFlipsZNeighborsPerLane injects an X error on different
// qubits in different lanes and checks that exactly the right lanes of the
// right Z-stabilizer event words fire.
func TestInjectedXErrorFlipsZNeighborsPerLane(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), surfacecode.KindZ)
	s.Reset(stats.NewRNG(3, 3))
	b := circuit.NewBuilder(l)
	s.RunRound(b.Round(circuit.Plan{})) // settle round 1

	// Lane 0: X on data qubit 0. Lane 5: X on data qubit 4 (center).
	s.InjectX(0, 1<<0)
	s.InjectX(4, 1<<5)
	events := s.RunRound(b.Round(circuit.Plan{}))
	for i := range l.Stabilizers {
		st := &l.Stabilizers[i]
		if st.Kind != surfacecode.KindZ {
			continue
		}
		var want uint64
		for _, q := range st.Data {
			if q == 0 {
				want ^= 1 << 0
			}
			if q == 4 {
				want ^= 1 << 5
			}
		}
		if events[i] != want {
			t.Errorf("stab %d events = %b, want %b", i, events[i], want)
		}
	}
}

// TestObservableFlipPerLane checks that a logical X chain in one lane flips
// only that lane's observable.
func TestObservableFlipPerLane(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), surfacecode.KindZ)
	s.Reset(stats.NewRNG(4, 4))
	b := circuit.NewBuilder(l)
	s.RunRound(b.Round(circuit.Plan{}))
	// Logical Z support is the top row; flip exactly one of its qubits in
	// lane 9 — a detectable error, but also a flip of the final outcome bit.
	q := l.ZLogicalSupport[0]
	s.InjectX(q, 1<<9)
	final := s.FinalMeasure(b.FinalMeasurement())
	if obs := s.ObservableFlip(final); obs != 1<<9 {
		t.Fatalf("observable word = %b, want lane 9 only", obs)
	}
}

// TestLRCClearsLeakagePerLane: a SWAP LRC on a leaked data qubit returns it
// to the computational basis in exactly the leaked lanes. Transport is
// disabled so the outcome is deterministic (with the paper's PTransport=0.1
// the parity qubit can pick the leak up and hand it straight back).
func TestLRCClearsLeakagePerLane(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.PTransport = 0
	s := New(l, n, surfacecode.KindZ)
	s.Reset(stats.NewRNG(5, 5))
	b := circuit.NewBuilder(l)
	const lanes = uint64(0xF0)
	s.InjectLeak(0, lanes)
	if s.LeakedWord(0) != lanes {
		t.Fatal("injection failed")
	}
	plan := circuit.Plan{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}}}
	s.RunRound(b.Round(plan))
	if s.LeakedWord(0) != 0 {
		t.Fatalf("LRC left lanes leaked: %b", s.LeakedWord(0))
	}
	// Without an LRC the leakage would have persisted (no seepage at p=0).
	s.Reset(stats.NewRNG(5, 6))
	s.InjectLeak(0, lanes)
	s.RunRound(b.Round(circuit.Plan{}))
	if s.LeakedWord(0) != lanes {
		t.Fatalf("plain round altered data leakage: %b", s.LeakedWord(0))
	}
}

// TestDQLRClearsLeakagePerLane: the LeakageISWAP returns leaked data lanes
// to the computational basis.
func TestDQLRClearsLeakagePerLane(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.PTransport = 0
	s := New(l, n, surfacecode.KindZ)
	s.Reset(stats.NewRNG(6, 6))
	b := circuit.NewBuilder(l)
	const lanes = uint64(0x5)
	s.InjectLeak(0, lanes)
	plan := circuit.Plan{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}},
		Protocol: circuit.ProtocolDQLR}
	s.RunRound(b.Round(plan))
	if s.LeakedWord(0) != 0 {
		t.Fatalf("DQLR left lanes leaked: %b", s.LeakedWord(0))
	}
}

// TestLeakedCountsActiveMask: counts respect the active-lane mask of a
// partial batch.
func TestLeakedCountsActiveMask(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), surfacecode.KindZ)
	s.Reset(stats.NewRNG(7, 7))
	s.InjectLeak(0, 0xFF)             // 8 lanes on data qubit 0
	s.InjectLeak(l.NumData, 0b11<<62) // 2 lanes on a parity qubit, outside mask
	d, p := s.LeakedCounts(AllLanes)
	if d != 8 || p != 2 {
		t.Fatalf("full counts = (%d, %d), want (8, 2)", d, p)
	}
	d, p = s.LeakedCounts(circuit.LaneMaskFor(4))
	if d != 4 || p != 0 {
		t.Fatalf("masked counts = (%d, %d), want (4, 0)", d, p)
	}
}

// TestLeakedLanesCarryNoFrames: the invariant behind the word-parallel gate
// implementations — leaked lanes always have zero frame bits.
func TestLeakedLanesCarryNoFrames(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noise.Standard(0.05), surfacecode.KindZ)
	s.Reset(stats.NewRNG(8, 8))
	b := circuit.NewBuilder(l)
	for r := 1; r <= 12; r++ {
		plan := circuit.Plan{}
		if r%2 == 0 {
			plan.LRCs = []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}}
		}
		s.RunRound(b.Round(plan))
		for q := 0; q < l.NumQubits; q++ {
			if lk := s.leaked[q]; s.x[q]&lk != 0 || s.z[q]&lk != 0 {
				t.Fatalf("round %d: qubit %d leaked lanes carry frames", r, q)
			}
		}
	}
}

// TestSamplerMatchesBernoulli: the skip-sampling mask generator produces
// per-lane set rates matching the target probability.
func TestSamplerMatchesBernoulli(t *testing.T) {
	rng := stats.NewRNG(9, 9)
	var m sampler
	for _, p := range []float64{1e-3, 0.02, 0.25} {
		m.reset(p, rng)
		const words = 40000
		set := 0
		for i := 0; i < words; i++ {
			set += bits.OnesCount64(m.next())
		}
		got := float64(set) / float64(words*Lanes)
		if got < 0.8*p || got > 1.2*p {
			t.Errorf("sampler rate %v for p=%v outside 20%%", got, p)
		}
	}
	// Extremes.
	m.reset(0, rng)
	if m.next() != 0 {
		t.Error("p=0 sampler set bits")
	}
	m.reset(1, rng)
	if m.next() != AllLanes {
		t.Error("p=1 sampler missed lanes")
	}
}

// TestMaskedLRCTouchesOnlyMaskedLanes: the heart of the lane-masked engine —
// an LRC masked to a subset of lanes removes leakage exactly there, while
// unmasked lanes (whose plan had no LRC) keep both their leakage and their
// Pauli frames untouched by the LRC's measure/reset.
func TestMaskedLRCTouchesOnlyMaskedLanes(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.PTransport = 0
	s := New(l, n, surfacecode.KindZ)
	s.Reset(stats.NewRNG(11, 11))
	b := circuit.NewBuilder(l)

	const q = 0
	lrcLanes := uint64(0b0101)  // lanes 0, 2: plan an LRC on q
	leakLanes := uint64(0b0110) // lanes 1, 2: q starts leaked
	s.InjectLeak(q, leakLanes)

	plans := make([]circuit.Plan, Lanes)
	for i := 0; i < Lanes; i++ {
		if lrcLanes&(1<<uint(i)) != 0 {
			plans[i] = circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
		}
	}
	s.RunRoundMasked(b.MaskedRound(plans, AllLanes))

	// Lane 2 (leaked, LRC'd) is cleaned; lane 1 (leaked, no LRC) stays
	// leaked; every other lane stays unleaked.
	if got := s.LeakedWord(q); got != 0b0010 {
		t.Fatalf("leaked word %b after masked round, want 0b0010", got)
	}
}

// TestMaskedFrameIsolation: lane 3's LRC measures and resets the data qubit
// mid-round, but the SWAP protocol holds the data state on the parity qubit
// and returns it afterwards — so the X frame must survive on the LRC'd lane
// (state-preserving leakage removal, as in the scalar engine) and, crucially,
// on lane 7, whose plan never touched the qubit.
func TestMaskedFrameIsolation(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), surfacecode.KindZ)
	s.Reset(stats.NewRNG(12, 12))
	b := circuit.NewBuilder(l)
	s.RunRound(b.Round(circuit.Plan{})) // settle round 1

	const q = 4 // center data qubit
	s.InjectX(q, 1<<3|1<<7)
	plans := make([]circuit.Plan, Lanes)
	plans[3] = circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
	s.RunRoundMasked(b.MaskedRound(plans, AllLanes))

	if s.x[q]&(1<<7) == 0 {
		t.Fatal("lane 7's X frame was destroyed by lane 3's LRC")
	}
	if s.x[q]&(1<<3) == 0 {
		t.Fatal("lane 3's X frame was not returned by its LRC's swap-back")
	}
	// No other lane may have picked up a frame bit from the masked ops.
	if extra := s.x[q] &^ (1<<3 | 1<<7); extra != 0 {
		t.Fatalf("masked round leaked X frames onto lanes %b", extra)
	}
}

// TestMLClassificationPlanes: with TrackML, a leaked measured wire is
// classified |L> in exactly its leaked lanes (error-free discriminator),
// and the data-wire planes are populated only for LRC'd stabilizers.
func TestMLClassificationPlanes(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.PTransport = 0
	s := New(l, n, surfacecode.KindZ)
	s.TrackML = true
	s.Reset(stats.NewRNG(13, 13))
	b := circuit.NewBuilder(l)

	// Leak a parity qubit on lanes 0 and 5; its measurement this round must
	// classify |L> exactly there.
	stab := 0
	anc := l.Stabilizers[stab].Ancilla
	s.InjectLeak(anc, 1<<0|1<<5)
	s.RunRound(b.Round(circuit.Plan{}))
	if got := s.MLParityLeak()[stab]; got != 1<<0|1<<5 {
		t.Fatalf("MLParityLeak[%d] = %b, want lanes 0 and 5", stab, got)
	}
	for i := range l.Stabilizers {
		if i != stab && s.MLParityLeak()[i] != 0 {
			t.Fatalf("MLParityLeak[%d] = %b, want 0", i, s.MLParityLeak()[i])
		}
	}

	// An LRC on a leaked data qubit: the data-wire plane flags |L> on the
	// LRC'd lane, driving the ERASER+M conditional swap-back.
	const q = 0
	s.InjectLeak(q, 1<<2)
	plans := make([]circuit.Plan, Lanes)
	plans[2] = circuit.Plan{
		LRCs:       []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}},
		CondReturn: true,
	}
	s.RunRoundMasked(b.MaskedRound(plans, AllLanes))
	if got := s.MLDataLeak()[l.SwapPrimary[q]]; got != 1<<2 {
		t.Fatalf("MLDataLeak = %b, want lane 2", got)
	}
	if s.LeakedWord(q) != 0 {
		t.Fatalf("conditional-return LRC left leakage: %b", s.LeakedWord(q))
	}
}

// TestCondReturnRequiresTrackML: executing the ERASER+M conditional
// swap-back without the ML planes is a harness bug and must panic.
func TestCondReturnRequiresTrackML(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), surfacecode.KindZ)
	s.Reset(stats.NewRNG(14, 14))
	b := circuit.NewBuilder(l)
	plans := make([]circuit.Plan, Lanes)
	plans[0] = circuit.Plan{
		LRCs:       []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}},
		CondReturn: true,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OpCondReturn without TrackML did not panic")
		}
	}()
	s.RunRoundMasked(b.MaskedRound(plans, AllLanes))
}

// TestMaskedNoiselessRoundsAreQuiet: masked rounds with heterogeneous
// per-lane plans stay silent without noise, and the observable stays
// unflipped in every lane.
func TestMaskedNoiselessRoundsAreQuiet(t *testing.T) {
	l := surfacecode.MustNew(5)
	n := noiseless()
	n.PTransport = 0
	s := New(l, n, surfacecode.KindZ)
	s.Reset(stats.NewRNG(15, 15))
	b := circuit.NewBuilder(l)
	for r := 1; r <= 6; r++ {
		plans := make([]circuit.Plan, Lanes)
		for i := 0; i < Lanes; i++ {
			q := (r + i) % l.NumData
			if i%3 == 0 {
				plans[i] = circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
			}
		}
		events := s.RunRoundMasked(b.MaskedRound(plans, AllLanes))
		for i, e := range events {
			if e != 0 {
				t.Fatalf("round %d: masked event word %b on stabilizer %d without noise", r, e, i)
			}
		}
	}
	final := s.FinalMeasure(b.FinalMeasurement())
	if obs := s.ObservableFlip(final); obs != 0 {
		t.Fatalf("observable flipped without noise: %b", obs)
	}
}

// TestBatchRNGDeterminism: same seed, same trajectory; different seeds
// diverge.
func TestBatchRNGDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		s, b := newBatch(3, noise.Standard(5e-3), seed)
		var all []uint64
		for r := 1; r <= 6; r++ {
			all = append(all, s.RunRound(b.Round(circuit.Plan{}))...)
		}
		return all
	}
	a, b2 := run(1), run(1)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := run(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}
