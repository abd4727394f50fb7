package main

import (
	"math/bits"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/sim/batch"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// Unit-level layers the replay times, in the order a round calls them.
const (
	layerPlan    = "core.plan"
	layerObserve = "core.observe"
	layerCompile = "circuit.compile"
	layerFrame   = "batch.frame"
	layerCollect = "decoder.collect"
	layerDecode  = "decoder.decode"
)

var unitLayers = []string{layerPlan, layerObserve, layerCompile, layerFrame, layerCollect, layerDecode}

// replayStats accumulates what a replay of whole 64-lane units measured.
type replayStats struct {
	ns                             map[string]int64 // layer -> time spent
	unitNS                         int64            // whole units
	shots, errors, units           int
	lrcs, ops, events, roundsTotal int64
	unitLRCs                       []int64 // LRCs of each replayed unit
}

func newReplayStats() *replayStats { return &replayStats{ns: make(map[string]int64)} }

// replayUnits re-implements the 64-lane unit loop for units [0, n) of cfg
// against the narrow public API (core.NewLanePolicies or core.NewPolicy,
// circuit.NewBuilder, batch.New, decoder.NewForKind), timing each call into
// a layer. The runner's per-config seed stream is not public, so the replay
// draws its own per-unit seeds from seed; its LER and LRC rate agree with
// the service's tallies only statistically. The first detail units record
// one span per call under parent; the rest only add to the totals.
func replayUnits(cfg experiment.Config, seed uint64, n, detail int, tr *tracer, parent int, st *replayStats) {
	layout := surfacecode.MustNew(cfg.Distance)
	np := noise.Standard(cfg.P)
	if cfg.Noise != nil {
		np = *cfg.Noise
	}
	var kstabs []decoder.StabMap
	for i := range layout.Stabilizers {
		if layout.Stabilizers[i].Kind == cfg.Basis {
			kstabs = append(kstabs, decoder.StabMap{Idx: int32(i), Ord: int32(layout.KindOrdinal(cfg.Basis, i))})
		}
	}
	rounds := cfg.NumRounds()
	builder := circuit.NewBuilder(layout)
	sim := batch.New(layout, np, cfg.Basis)
	sim.TrackML = cfg.Policy == core.PolicyEraserM
	dec := decoder.NewForKind(layout, cfg.Decoder, cfg.Basis)
	col := decoder.NewBatchCollector()
	static := cfg.Policy == core.PolicyNone || cfg.Policy == core.PolicyAlways
	var pol core.Policy
	var lanes *core.LanePolicies
	if static {
		// Static schedules plan once per round for the whole batch, as the
		// runner's constant-plan worker does.
		pol = core.NewPolicy(cfg.Policy, layout, cfg.Protocol)
	} else {
		lanes = core.NewLanePolicies(cfg.Policy, layout, cfg.Protocol, batch.Lanes)
	}
	full := circuit.LaneMaskFor(batch.Lanes)

	for u := 0; u < n; u++ {
		unitStart := time.Now()
		unit := -1
		if u < detail {
			unit = tr.open("replay.unit", cfg.Describe(), parent, unitStart)
		}
		prev := unitStart
		lrcs0 := st.lrcs
		// lap charges the time since the previous lap to layer.
		lap := func(layer string) {
			now := time.Now()
			st.ns[layer] += now.Sub(prev).Nanoseconds()
			if unit >= 0 {
				tr.add(layer, "", unit, prev, now)
			}
			prev = now
		}
		sim.Reset(stats.NewRNG(seed, uint64(u)))
		lap(layerFrame)
		col.Reset()
		lap(layerCollect)
		if static {
			pol.Reset()
		} else {
			lanes.Reset()
		}
		lap(layerPlan)
		for r := 1; r <= rounds; r++ {
			var events []uint64
			if static {
				plan := pol.PlanRound(r)
				lap(layerPlan)
				st.lrcs += int64(len(plan.LRCs)) * batch.Lanes
				ops := builder.Round(plan)
				lap(layerCompile)
				st.ops += int64(len(ops))
				events = sim.RunRound(ops)
				lap(layerFrame)
			} else {
				plans := lanes.PlanRound(r, full)
				lap(layerPlan)
				st.lrcs += lanes.LRCTotal()
				ops := builder.MaskedRound(plans, full)
				lap(layerCompile)
				st.ops += int64(len(ops))
				events = sim.RunRoundMasked(ops)
				lap(layerFrame)
			}
			col.AddWords(events, kstabs, r, batch.AllLanes)
			lap(layerCollect)
			if !static {
				lanes.Observe(core.LaneRoundInfo{
					Round:          r,
					Active:         full,
					Events:         events,
					MLParityLeak:   sim.MLParityLeak(),
					MLParityVal:    sim.MLParityVal(),
					TrueLeakedData: sim.LeakedDataWords(),
				})
				lap(layerObserve)
			}
		}
		fdet, obs := sim.FinalRound(builder.FinalMeasurement())
		lap(layerFrame)
		col.AddWords(fdet, kstabs, rounds+1, batch.AllLanes)
		lap(layerCollect)
		pred := dec.DecodeLanes(col, 0, batch.Lanes)
		lap(layerDecode)

		for i := 0; i < batch.Lanes; i++ {
			st.events += int64(len(col.Lane(i)))
		}
		st.errors += bits.OnesCount64(pred ^ obs)
		st.shots += batch.Lanes
		st.units++
		st.unitLRCs = append(st.unitLRCs, st.lrcs-lrcs0)
		st.roundsTotal += int64(rounds)
		st.unitNS += prev.Sub(unitStart).Nanoseconds()
		if unit >= 0 {
			tr.close(unit, prev)
		}
	}
}
