package experiment

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

func jsonRoundTrip(in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func tallyCfg(pol core.Kind, shots int, forceScalar bool) Config {
	return Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: shots, Seed: 11,
		Policy: pol, Workers: 2, ForceScalar: forceScalar}
}

// TestTallyMergePartition is the exact-merge property test: N partial runs
// over disjoint unit ranges must merge to the identical tally of one full
// run at the same seed — bit-for-bit, not just statistically — and Wilson
// bounds recomputed from the merged counts must match the full run's.
func TestTallyMergePartition(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"batch-static", tallyCfg(core.PolicyAlways, 4*64, false)},
		{"batch-adaptive", tallyCfg(core.PolicyEraser, 4*64, false)},
		{"scalar", tallyCfg(core.PolicyAlways, 24, true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			units := tc.cfg.NumUnits()
			full := RunUnits(tc.cfg, 0, units)

			// Partition [0, units) into three uneven ranges, run each
			// independently and merge out of order.
			cuts := []int{0, units / 3, units / 2, units}
			parts := make([]*Tally, 0, 3)
			for i := 0; i+1 < len(cuts); i++ {
				parts = append(parts, RunUnits(tc.cfg, cuts[i], cuts[i+1]))
			}
			merged := parts[2].Clone()
			if err := merged.Merge(parts[0]); err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(parts[1]); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full, merged) {
				t.Fatalf("merged partition differs from full run:\nfull   %+v\nmerged %+v", full, merged)
			}

			fullRes := full.ResultFor(tc.cfg)
			lo, hi := stats.Wilson(merged.LogicalErrors, merged.Shots, 1.96)
			if lo != fullRes.LERLow || hi != fullRes.LERHigh {
				t.Fatalf("Wilson bounds from merged counts [%v, %v] != full run [%v, %v]",
					lo, hi, fullRes.LERLow, fullRes.LERHigh)
			}
			if got := merged.HalfWidth(1.96); got != (hi-lo)/2 {
				t.Fatalf("HalfWidth %v != (hi-lo)/2 %v", got, (hi-lo)/2)
			}
		})
	}
}

// TestRunEqualsUnitTally: Run must be exactly the tally path at the
// config's own shot count.
func TestRunEqualsUnitTally(t *testing.T) {
	cfg := tallyCfg(core.PolicyEraserM, 2*64, false)
	res := Run(cfg)
	unit := RunUnits(cfg, 0, cfg.NumUnits()).ResultFor(cfg)
	if res.LogicalErrors != unit.LogicalErrors || res.Shots != unit.Shots ||
		res.TruePos != unit.TruePos || res.LRCsPerRound != unit.LRCsPerRound {
		t.Fatalf("Run %+v != RunUnits-derived %+v", res, unit)
	}
	if !sameSeries(res.LPRTotal, unit.LPRTotal) {
		t.Fatal("LPR series diverged between Run and RunUnits")
	}
}

func TestTallyMergeRejectsOverlapAndShapeMismatch(t *testing.T) {
	cfg := tallyCfg(core.PolicyAlways, 3*64, false)
	a := RunUnits(cfg, 0, 2)
	b := RunUnits(cfg, 1, 3)
	if err := a.Clone().Merge(b); err == nil {
		t.Fatal("overlapping unit sets merged without error")
	}
	short := cfg
	short.Cycles = 1
	c := RunUnits(short, 3, 4)
	if err := a.Clone().Merge(c); err == nil {
		t.Fatal("mismatched round counts merged without error")
	}
	scalar := cfg
	scalar.ForceScalar = true
	d := RunUnits(scalar, 200, 201)
	if err := a.Clone().Merge(d); err == nil {
		t.Fatal("mismatched unit widths merged without error")
	}
}

func TestTallyJSONRoundTrip(t *testing.T) {
	cfg := tallyCfg(core.PolicyAlways, 2*64, false)
	orig := RunUnits(cfg, 0, 2)
	var back Tally
	if err := jsonRoundTrip(orig, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, &back) {
		t.Fatalf("tally did not survive JSON round trip:\norig %+v\nback %+v", orig, &back)
	}
}

func TestUnitSetProperties(t *testing.T) {
	f := func(idxs []uint16, probe uint16) bool {
		var s UnitSet
		seen := map[int]bool{}
		for _, i := range idxs {
			s.Add(int(i) % 2048)
			seen[int(i)%2048] = true
		}
		if s.Count() != len(seen) {
			return false
		}
		p := int(probe) % 2048
		if s.Contains(p) != seen[p] {
			return false
		}
		// FirstGap returns an uncovered index at or after the probe, with
		// everything in between covered.
		g := s.FirstGap(p)
		if s.Contains(g) || g < p {
			return false
		}
		for i := p; i < g; i++ {
			if !s.Contains(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigKeySeparatesConfigsAndIgnoresVolume(t *testing.T) {
	base := tallyCfg(core.PolicyEraser, 256, false)
	k0 := base.Key()

	// Shots and Workers choose how much/how fast, not what: same key.
	more := base
	more.Shots = 4096
	more.Workers = 7
	if more.Key() != k0 {
		t.Fatal("Shots/Workers changed the content key; tallies could never extend")
	}

	// Anything that changes unit content must change the key.
	for name, mutate := range map[string]func(*Config){
		"distance":  func(c *Config) { c.Distance = 5 },
		"cycles":    func(c *Config) { c.Cycles = 3 },
		"policy":    func(c *Config) { c.Policy = core.PolicyAlways },
		"seed":      func(c *Config) { c.Seed++ },
		"p":         func(c *Config) { c.P = 3e-3 },
		"scalar":    func(c *Config) { c.ForceScalar = true },
		"uf":        func(c *Config) { c.UseUnionFind = true },
		"threshold": func(c *Config) { c.Ablation.Threshold = 1 },
		"noputt":    func(c *Config) { c.Ablation.NoPUTT = true },
		"nobackup":  func(c *Config) { c.Ablation.NoBackup = true },
	} {
		c := base
		mutate(&c)
		if c.Key() == k0 {
			t.Fatalf("%s change did not change the content key", name)
		}
	}
	// An ablation also draws its own RNG stream.
	abl := base
	abl.Ablation.NoPUTT = true
	if configStream(abl) == configStream(base) {
		t.Fatal("ablation shares the paper design's RNG stream")
	}
}

// TestTallyCheck: real runs — batch static and adaptive, a shot-capped
// partial unit, the scalar path, and an empty tally — satisfy the merge-time
// invariant, and each kind of corruption trips it.
func TestTallyCheck(t *testing.T) {
	const numData = 9 // d = 3
	for _, tc := range []struct {
		name string
		t    *Tally
	}{
		{"batch-static", RunUnits(tallyCfg(core.PolicyAlways, 2*64, false), 0, 2)},
		{"batch-adaptive", RunUnits(tallyCfg(core.PolicyEraserM, 2*64, false), 1, 3)},
		{"scalar", RunUnits(tallyCfg(core.PolicyEraser, 5, true), 0, 5)},
		{"empty", NewTally(6, 64)},
	} {
		if err := tc.t.Check(numData); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	capped, _ := runUnitRange(context.Background(), tallyCfg(core.PolicyEraser, 100, false), 0, 2, 100)
	if err := capped.Check(numData); err != nil {
		t.Errorf("shot-capped: %v", err)
	}

	good := RunUnits(tallyCfg(core.PolicyEraser, 2*64, false), 0, 2)
	for _, c := range []struct {
		name    string
		corrupt func(*Tally)
	}{
		{"decision lost", func(t *Tally) { t.TrueNeg-- }},
		{"decision extra", func(t *Tally) { t.FalsePos++ }},
		{"short LPR", func(t *Tally) { t.LPRParityNum = t.LPRParityNum[1:] }},
		{"shots over units", func(t *Tally) { t.Shots += 64; t.TrueNeg += 64 * numData * int64(t.Rounds) }},
		{"shots under units", func(t *Tally) { t.Shots -= 64; t.TrueNeg -= 64 * numData * int64(t.Rounds) }},
		{"shots without units", func(t *Tally) { t.Covered = UnitSet{} }},
	} {
		bad := good.Clone()
		c.corrupt(bad)
		if err := bad.Check(numData); err == nil {
			t.Errorf("%s: corrupted tally passed Check", c.name)
		}
	}
}

// TestResultForBuildsNothing: ResultFor derives the qubit counts in closed
// form instead of building a layout, so a warm read allocates only the three
// LPR series, and the closed form gives bit-identical LPRs to the layout's
// own counts.
func TestResultForBuildsNothing(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		cfg := Config{Distance: d, Cycles: 2, P: 2e-3, Seed: 3, Policy: core.PolicyEraser,
			Protocol: circuit.ProtocolDQLR}
		tally := RunUnits(cfg, 0, 2)
		res := tally.ResultFor(cfg)
		l := surfacecode.MustNew(d)
		shots := float64(tally.Shots)
		for r := 0; r < tally.Rounds; r++ {
			data := float64(tally.LPRDataNum[r]) / (shots * float64(l.NumData))
			parity := float64(tally.LPRParityNum[r]) / (shots * float64(l.NumParity))
			total := (data*float64(l.NumData) + parity*float64(l.NumParity)) / float64(l.NumQubits)
			if res.LPRData[r] != data || res.LPRParity[r] != parity || res.LPRTotal[r] != total {
				t.Fatalf("d=%d round %d: LPR (%v, %v, %v), layout counts give (%v, %v, %v)",
					d, r, res.LPRData[r], res.LPRParity[r], res.LPRTotal[r], data, parity, total)
			}
		}
		if res.PolicyName != "ERASER-DQLR" {
			t.Fatalf("policy name %q, want ERASER-DQLR", res.PolicyName)
		}
		if allocs := testing.AllocsPerRun(100, func() { sinkResult = tally.ResultFor(cfg) }); allocs > 3 {
			t.Fatalf("d=%d: ResultFor allocates %v times per call, want <= 3 (the LPR series)", d, allocs)
		}
	}
}

// sinkResult keeps the measured ResultFor calls live.
var sinkResult Result
