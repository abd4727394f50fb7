package main

import (
	"fmt"
	"reflect"

	"repro/internal/experiment"
	"repro/internal/surfacecode"
)

// gateTally is the correctness gate for one cold point: the tally the
// service produced must cover a prefix of units, satisfy the tally
// invariants, and be bit-equal to running those units directly.
func gateTally(cfg experiment.Config, got *experiment.Tally) error {
	if got == nil {
		return fmt.Errorf("%s: no tally in the store", cfg.Describe())
	}
	if err := checkInvariants(cfg, got); err != nil {
		return err
	}
	n := got.Covered.Count()
	if got.Covered.FirstGap(0) != n {
		return fmt.Errorf("%s: covered units are not a prefix", cfg.Describe())
	}
	want := experiment.RunUnits(cfg, 0, n)
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("%s: service tally differs from RunUnits over [0, %d): shots %d/%d, errors %d/%d",
			cfg.Describe(), n, got.Shots, want.Shots, got.LogicalErrors, want.LogicalErrors)
	}
	return nil
}

// checkInvariants checks the tally's bookkeeping: one speculation decision
// per data qubit per round per shot, and one LPR numerator per round.
func checkInvariants(cfg experiment.Config, t *experiment.Tally) error {
	rounds := cfg.NumRounds()
	numData := surfacecode.MustNew(cfg.Distance).NumData
	if t.Rounds != rounds || len(t.LPRDataNum) != rounds || len(t.LPRParityNum) != rounds {
		return fmt.Errorf("%s: tally has %d rounds and LPR lengths %d/%d, want %d",
			cfg.Describe(), t.Rounds, len(t.LPRDataNum), len(t.LPRParityNum), rounds)
	}
	decisions := t.TruePos + t.FalsePos + t.TrueNeg + t.FalseNeg
	if want := int64(t.Shots) * int64(numData) * int64(rounds); decisions != want {
		return fmt.Errorf("%s: tp+fp+tn+fn = %d, want shots·NumData·rounds = %d",
			cfg.Describe(), decisions, want)
	}
	if t.Shots != t.Covered.Count()*t.UnitShots {
		return fmt.Errorf("%s: %d shots over %d units of %d", cfg.Describe(), t.Shots, t.Covered.Count(), t.UnitShots)
	}
	return nil
}

// gateWarm checks one warm reply against want, the result of the tally
// primed for its point: it must be served from the store, with the stored
// LER.
func gateWarm(rep warmReply, want *experiment.Result, cfg experiment.Config) error {
	if want == nil {
		return fmt.Errorf("%s: no primed tally to check the warm reply against", cfg.Describe())
	}
	if !rep.status.Cached {
		return fmt.Errorf("%s: warm request was not cached (%d units executed)", cfg.Describe(), rep.status.UnitsExecuted)
	}
	if rep.result.LER != want.LER || rep.result.Shots != want.Shots {
		return fmt.Errorf("%s: warm LER %v over %d shots, primed %v over %d",
			cfg.Describe(), rep.result.LER, rep.result.Shots, want.LER, want.Shots)
	}
	return nil
}

// primedResults derives each primed tally's result once, before the warm
// requests are timed, so checking a reply costs the client no ResultFor.
func primedResults(pts []point, tallies []*experiment.Tally) []*experiment.Result {
	out := make([]*experiment.Result, len(pts))
	for i, t := range tallies {
		if t != nil {
			r := t.ResultFor(pts[i].Config)
			out[i] = &r
		}
	}
	return out
}
