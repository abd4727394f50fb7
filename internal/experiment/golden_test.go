package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/surfacecode"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenCase is one pinned run: units [lo, hi) of cfg with the total shot
// count clamped to shotsCap (0 means full-width units, as RunUnits runs).
type goldenCase struct {
	name     string
	cfg      Config
	lo, hi   int
	shotsCap int
}

// goldenFile is the stored form of a case: its content address and the
// exact tally it produced.
type goldenFile struct {
	Key   string `json:"key"`
	Tally *Tally `json:"tally"`
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	hotspot, err := device.Hotspot(3, 5e-3, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := device.Drift(3, 5e-3, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	base := func(d int, pol core.Kind, proto circuit.Protocol) Config {
		return Config{Distance: d, Cycles: 2, P: 5e-3, Seed: 2024, Policy: pol, Protocol: proto}
	}
	var cs []goldenCase
	// Every policy under both LRC protocols, on unit ranges that start and
	// end off a 4-unit boundary.
	for _, pol := range []core.Kind{core.PolicyNone, core.PolicyAlways,
		core.PolicyEraser, core.PolicyEraserM, core.PolicyOptimal} {
		cs = append(cs,
			goldenCase{name: pol.String() + "-swap", cfg: base(3, pol, circuit.ProtocolSwap), lo: 1, hi: 10},
			goldenCase{name: pol.String() + "-dqlr", cfg: base(3, pol, circuit.ProtocolDQLR), lo: 3, hi: 13})
	}
	withProfile := func(c Config, p *device.Profile) Config { c.Profile = p; return c }
	uf := base(3, core.PolicyEraser, circuit.ProtocolSwap)
	uf.UseUnionFind = true
	ufAlways := base(5, core.PolicyAlways, circuit.ProtocolSwap)
	ufAlways.UseUnionFind = true
	memX := base(3, core.PolicyEraserM, circuit.ProtocolSwap)
	memX.Basis = surfacecode.KindX
	scalar := base(3, core.PolicyEraser, circuit.ProtocolSwap)
	scalar.ForceScalar = true
	capStatic := base(3, core.PolicyAlways, circuit.ProtocolSwap)
	capStatic.Shots = 5*64 + 23
	capAdaptive := base(3, core.PolicyEraser, circuit.ProtocolSwap)
	capAdaptive.Shots = 5*64 + 23
	ablated := func(c Config, a core.Ablation) Config { c.Ablation = a; return c }
	cs = append(cs,
		goldenCase{name: "hotspot-eraser", cfg: withProfile(base(3, core.PolicyEraser, circuit.ProtocolSwap), hotspot), lo: 0, hi: 8},
		goldenCase{name: "hotspot-always", cfg: withProfile(base(3, core.PolicyAlways, circuit.ProtocolSwap), hotspot), lo: 1, hi: 7},
		goldenCase{name: "drift-eraserm", cfg: withProfile(base(3, core.PolicyEraserM, circuit.ProtocolDQLR), drift), lo: 2, hi: 11},
		goldenCase{name: "drift-none", cfg: withProfile(base(3, core.PolicyNone, circuit.ProtocolSwap), drift), lo: 0, hi: 4},
		goldenCase{name: "uf-eraser", cfg: uf, lo: 1, hi: 10},
		goldenCase{name: "uf-always-d5", cfg: ufAlways, lo: 0, hi: 5},
		goldenCase{name: "d5-eraser", cfg: base(5, core.PolicyEraser, circuit.ProtocolSwap), lo: 1, hi: 6},
		goldenCase{name: "d5-optimal", cfg: base(5, core.PolicyOptimal, circuit.ProtocolSwap), lo: 0, hi: 4},
		goldenCase{name: "memx-eraserm", cfg: memX, lo: 1, hi: 10},
		goldenCase{name: "scalar-eraser", cfg: scalar, lo: 3, hi: 40},
		goldenCase{name: "cap-always", cfg: capStatic, lo: 0, hi: capStatic.NumUnits(), shotsCap: capStatic.Shots},
		goldenCase{name: "cap-eraser", cfg: capAdaptive, lo: 0, hi: capAdaptive.NumUnits(), shotsCap: capAdaptive.Shots},
		goldenCase{name: "ablate-threshold1", cfg: ablated(base(3, core.PolicyEraser, circuit.ProtocolSwap), core.Ablation{Threshold: 1}), lo: 1, hi: 10},
		goldenCase{name: "ablate-noputt-eraserm", cfg: ablated(base(3, core.PolicyEraserM, circuit.ProtocolSwap), core.Ablation{NoPUTT: true}), lo: 2, hi: 9},
		goldenCase{name: "ablate-nobackup", cfg: ablated(base(5, core.PolicyEraser, circuit.ProtocolSwap), core.Ablation{NoBackup: true}), lo: 0, hi: 5},
	)
	return cs
}

// TestGoldenTallies pins the exact Config.Key and Tally of a small corpus of
// runs covering every policy, both protocols, uniform and heterogeneous
// device profiles, both decoders, d=3/5, memory-X, the scalar path, each
// Ablation field, and unit ranges and shot caps that cut across unit
// boundaries. Stored tallies are
// the behaviour the result store depends on, so any engine refactor must
// reproduce them byte for byte. Each case runs at one and two workers,
// covering the inline and the pipelined decode sink. Regenerate with
// `go test ./internal/experiment -run TestGoldenTallies -update` only when a
// change is meant to alter the unit stream (and bump the key schema then).
func TestGoldenTallies(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, gc := range goldenCases(t) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				cfg := gc.cfg
				cfg.Workers = workers
				key := cfg.Key()
				shotsCap := gc.shotsCap
				if shotsCap == 0 {
					shotsCap = gc.hi * cfg.UnitShots()
				}
				tally, _ := runUnitRange(context.Background(), cfg, gc.lo, gc.hi, shotsCap)
				got, err := json.MarshalIndent(goldenFile{Key: key, Tally: tally}, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				path := filepath.Join(dir, gc.name+".json")
				if *update && workers == 1 {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: golden mismatch for %s\n got: %s\nwant: %s", workers, gc.name, got, want)
				}
			}
		})
	}
}
