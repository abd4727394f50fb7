package service

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/store"
)

func newTestScheduler(t *testing.T, dir string) *Scheduler {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(st, 0)
}

func figOpts(runner func(experiment.Config) experiment.Result) experiment.Options {
	return experiment.Options{
		Shots:     128,
		Seed:      2023,
		P:         2e-3,
		Distances: []int{3, 5},
		Cycles:    2,
		Runner:    runner,
	}
}

// TestWarmCacheFigure14RunsZeroUnits is the headline cache guarantee: a
// warm-cache re-run of the Figure 14 sweep — same process or a fresh one
// over the same store directory — must execute zero simulation units and
// reproduce the cold sweep exactly.
func TestWarmCacheFigure14RunsZeroUnits(t *testing.T) {
	dir := t.TempDir()
	sched := newTestScheduler(t, dir)
	cold := experiment.Figure14(figOpts(sched.Runner(Precision{})))
	coldUnits := sched.UnitsExecuted()
	if coldUnits == 0 {
		t.Fatal("cold sweep executed no units")
	}

	warm := experiment.Figure14(figOpts(sched.Runner(Precision{})))
	if n := sched.UnitsExecuted() - coldUnits; n != 0 {
		t.Fatalf("warm re-run executed %d units, want 0", n)
	}
	for p := range cold.Names {
		for i := range cold.Distances {
			if cold.LER[p][i] != warm.LER[p][i] ||
				cold.LERLow[p][i] != warm.LERLow[p][i] ||
				cold.LERHigh[p][i] != warm.LERHigh[p][i] {
				t.Fatalf("warm sweep diverged at policy %d distance %d", p, i)
			}
		}
	}

	// Fresh scheduler over the same directory: the cache must survive the
	// process boundary via the persisted entries.
	sched2 := newTestScheduler(t, dir)
	experiment.Figure14(figOpts(sched2.Runner(Precision{})))
	if n := sched2.UnitsExecuted(); n != 0 {
		t.Fatalf("restarted warm re-run executed %d units, want 0", n)
	}
}

// TestAdaptivePrecision drives the CI-targeted allocator: every point must
// stop with Wilson half-width <= target, and at least one low-distance
// (easy) point must spend fewer shots than the fixed-count baseline.
func TestAdaptivePrecision(t *testing.T) {
	sched := newTestScheduler(t, "")
	const (
		target     = 0.02
		fixedShots = 8192
	)
	prec := Precision{TargetCIHalfWidth: target, MinShots: 128, MaxShots: 1 << 16}

	fewerSomewhere := false
	for _, d := range []int{3, 5} {
		cfg := experiment.Config{Distance: d, Cycles: 2, P: 2e-3,
			Shots: fixedShots, Seed: 7, Policy: core.PolicyAlways}
		j, err := sched.Submit(cfg, prec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Result(); err != nil {
			t.Fatal(err)
		}
		tal := j.Tally()
		if hw := tal.HalfWidth(1.96); hw > target {
			t.Fatalf("d=%d stopped at half-width %v > target %v (shots %d)", d, hw, target, tal.Shots)
		}
		if tal.Shots < prec.MinShots {
			t.Fatalf("d=%d stopped below MinShots: %d", d, tal.Shots)
		}
		if tal.Shots < fixedShots {
			fewerSomewhere = true
		}
	}
	if !fewerSomewhere {
		t.Fatalf("adaptive allocation never beat the fixed %d-shot baseline", fixedShots)
	}
}

// TestHigherPrecisionExtendsPriorWork: tightening the CI target must reuse
// every unit of the looser run — the second job's executed units plus the
// first's equals what a cold run at the tight target would need, and the
// store ends with a single contiguous covered prefix.
func TestHigherPrecisionExtendsPriorWork(t *testing.T) {
	sched := newTestScheduler(t, "")
	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Seed: 9,
		Policy: core.PolicyAlways}

	j1, err := sched.Submit(cfg, Precision{TargetCIHalfWidth: 0.04, MinShots: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Result(); err != nil {
		t.Fatal(err)
	}
	loose := j1.Tally()

	j2, err := sched.Submit(cfg, Precision{TargetCIHalfWidth: 0.01, MinShots: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Result(); err != nil {
		t.Fatal(err)
	}
	tight := j2.Tally()

	if tight.Shots <= loose.Shots {
		t.Fatalf("tight target did not extend: %d -> %d shots", loose.Shots, tight.Shots)
	}
	if j2.Status().UnitsExecuted != tight.Covered.Count()-loose.Covered.Count() {
		t.Fatalf("tight job executed %d units, want the %d-unit extension only",
			j2.Status().UnitsExecuted, tight.Covered.Count()-loose.Covered.Count())
	}
	if gap := tight.Covered.FirstGap(0); gap != tight.Covered.Count() {
		t.Fatalf("covered set is not a contiguous prefix: first gap %d of %d", gap, tight.Covered.Count())
	}
}

// TestConcurrentIdenticalSubmitsRunOnce: however many identical requests
// race, the total work equals one request's worth — either deduplicated in
// flight or answered from the store.
func TestConcurrentIdenticalSubmitsRunOnce(t *testing.T) {
	sched := newTestScheduler(t, "")
	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 6 * 64,
		Seed: 13, Policy: core.PolicyEraser}

	const callers = 8
	var wg sync.WaitGroup
	results := make([]experiment.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sched.Run(cfg, Precision{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if n, want := sched.UnitsExecuted(), int64(cfg.NumUnits()); n != want {
		t.Fatalf("%d callers executed %d units total, want %d", callers, n, want)
	}
	for i := 1; i < callers; i++ {
		if results[i].LogicalErrors != results[0].LogicalErrors || results[i].Shots != results[0].Shots {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

func TestSubmitRejectsInvalidConfigs(t *testing.T) {
	sched := newTestScheduler(t, "")
	if _, err := sched.Submit(experiment.Config{Distance: 4, P: 1e-3, Shots: 64,
		Policy: core.PolicyNone}, Precision{}); err == nil {
		t.Fatal("even distance accepted")
	}
	if _, err := sched.Submit(experiment.Config{Distance: 3, P: 2, Shots: 64,
		Policy: core.PolicyNone}, Precision{}); err == nil {
		t.Fatal("invalid noise accepted")
	}
	if _, err := sched.Submit(experiment.Config{Distance: 3, P: 1e-3, Shots: 64,
		Policy: core.PolicyNone, Tune: func(core.Policy) {}}, Precision{}); err == nil {
		t.Fatal("Tune-carrying config accepted")
	}
	if _, err := sched.Submit(experiment.Config{Distance: 3, P: 1e-3,
		Policy: core.PolicyNone}, Precision{}); err == nil {
		t.Fatal("fixed-count request with zero shots accepted")
	}
}

// TestServiceMatchesDirectRun: the fixed-count service path must return the
// same statistics as a direct full-width unit run.
func TestServiceMatchesDirectRun(t *testing.T) {
	sched := newTestScheduler(t, "")
	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64,
		Seed: 3, Policy: core.PolicyAlways}
	got, err := sched.Run(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	want := experiment.RunUnits(cfg, 0, cfg.NumUnits()).ResultFor(cfg)
	if got.LogicalErrors != want.LogicalErrors || got.Shots != want.Shots ||
		got.LER != want.LER || got.TruePos != want.TruePos {
		t.Fatalf("service result %+v != direct %+v", got, want)
	}
}
