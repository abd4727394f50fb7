package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/service"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n, want, pct int
		val          time.Duration
		ok           bool
	}{
		{n: 1000, want: 99, pct: 99, val: 990 * time.Millisecond, ok: true},
		{n: 999, want: 99, pct: 98, val: 980 * time.Millisecond, ok: true},
		{n: 500, want: 99, pct: 98, val: 490 * time.Millisecond, ok: true},
		{n: 100, want: 50, pct: 50, val: 50 * time.Millisecond, ok: true},
		{n: 15, want: 99, ok: false},
	} {
		got, ok := tailPercentile(samples(tc.n), tc.want)
		if ok != tc.ok || got.N != tc.n {
			t.Fatalf("n=%d: ok=%v N=%d, want ok=%v N=%d", tc.n, ok, got.N, tc.ok, tc.n)
		}
		if !ok {
			continue
		}
		if got.Pct != tc.pct || got.Value != tc.val {
			t.Errorf("n=%d p%d: got p%d = %v, want p%d = %v", tc.n, tc.want, got.Pct, got.Value, tc.pct, tc.val)
		}
		if beyond := got.N - (got.Pct*got.N+99)/100; beyond < tailSamples {
			t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, got.Pct)
		}
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	const window = 1000
	var samples []time.Duration
	for w := 0; w < 5; w++ {
		for i := 0; i < window; i++ {
			d := time.Duration(i%100) * time.Microsecond
			if w == 2 && i%10 == 0 {
				d = time.Second // a stalled window
			}
			samples = append(samples, d)
		}
	}
	got, windows, ok := windowedTail(samples, window, 99)
	if !ok || windows != 5 || got.N != 5*window || got.Pct != 99 {
		t.Fatalf("got %+v over %d windows (ok=%v), want p99 over 5 windows of %d", got, windows, ok, window)
	}
	clean, _ := tailPercentile(samples[:window], 99)
	if got.Value != clean.Value {
		t.Errorf("windowed p99 = %v, want a clean window's %v: the stalled window must not set it", got.Value, clean.Value)
	}
	if _, _, ok := windowedTail(samples[:15], window, 99); ok {
		t.Error("a 15-sample run reports a tail")
	}
}

func TestWindowRatesMeasureFromPreviousWindow(t *testing.T) {
	start := time.Unix(0, 0)
	// 10 completions a millisecond apart, then a 10 ms stall before the
	// last 5: windows of 5 run 5/5ms, 5/5ms and 5/15ms; the short tail of 2
	// is dropped.
	var ends []time.Time
	for i := 1; i <= 10; i++ {
		ends = append(ends, start.Add(time.Duration(i)*time.Millisecond))
	}
	for i := 1; i <= 7; i++ {
		ends = append(ends, start.Add(time.Duration(20+i)*time.Millisecond))
	}
	got := windowRates(start, ends, 5)
	want := []float64{1000, 1000, 1000.0 / 3}
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("window %d rate = %v, want %v", i, got[i], want[i])
		}
	}
	if m := median(got); m != 1000 {
		t.Errorf("median rate = %v, want 1000: the stalled window must not set it", m)
	}
	if got := windowRates(start, ends[:3], 5); len(got) != 1 || math.Abs(got[0]-1000) > 1e-6 {
		t.Errorf("a run shorter than one window gives %v, want one window at 1000/s", got)
	}
}

func gateConfig() experiment.Config {
	np := noise.Standard(1e-3)
	return experiment.Config{Distance: 3, Cycles: 1, P: 1e-3, Noise: &np, Seed: 7, Policy: core.PolicyEraser, Shots: 128}
}

func TestGateAcceptsServiceTallyAndTripsOnPerturbation(t *testing.T) {
	cfg := gateConfig()
	good := experiment.RunUnits(cfg, 0, 2)
	if err := gateTally(cfg, good); err != nil {
		t.Fatalf("gate rejects an exact tally: %v", err)
	}
	for name, perturb := range map[string]func(*experiment.Tally){
		"logical errors": func(t *experiment.Tally) { t.LogicalErrors++ },
		"lrcs":           func(t *experiment.Tally) { t.LRCs++ },
		"decisions":      func(t *experiment.Tally) { t.TruePos++ },
		"lpr length":     func(t *experiment.Tally) { t.LPRDataNum = t.LPRDataNum[1:] },
		"lpr value":      func(t *experiment.Tally) { t.LPRParityNum[0]++ },
	} {
		bad := good.Clone()
		perturb(bad)
		if err := gateTally(cfg, bad); err == nil {
			t.Errorf("gate accepts a tally with perturbed %s", name)
		}
	}
	if err := gateTally(cfg, nil); err == nil {
		t.Error("gate accepts a missing tally")
	}
	if err := gateWarm(warmReply{status: service.Status{Cached: true}}, nil, cfg); err == nil {
		t.Error("warm gate accepts a reply with no primed result")
	}

	res := good.ResultFor(cfg)
	rep := warmReply{status: service.Status{Cached: true}, result: warmResult{LER: res.LER, Shots: res.Shots}}
	if err := gateWarm(rep, &res, cfg); err != nil {
		t.Fatalf("warm gate rejects a cached reply with the primed LER: %v", err)
	}
	uncached := rep
	uncached.status.Cached = false
	wrong := rep
	wrong.result.LER += 1e-9
	for name, r := range map[string]warmReply{"uncached": uncached, "wrong LER": wrong} {
		if err := gateWarm(r, &res, cfg); err == nil {
			t.Errorf("warm gate accepts a %s reply", name)
		}
	}
}

var tinySizes = sizes{
	fig14Target:    0.05,
	fig14MaxShots:  256,
	staticShots:    128,
	poolShots:      64,
	warmPerClient:  5,
	slicePerClient: 5,
	warmSlices:     2,
	warmRounds:     2,
	minReps:        2,
	replayUnits:    2,
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	return endToEnd, perLayer
}

func TestTinyRunOfEachWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 0.2, trace: traced,
				dir: t.TempDir(), workers: runtime.NumCPU(), size: tinySizes}
			d, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			res := report(o, d)
			if !res.summary.Correct || d.failed != 0 || d.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", w, traced, d.failed, d.attempted, d.errs)
			}
			var got []string
			for name, m := range res.summary.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(got)
			want := append([]string(nil), endToEnd...)
			if traced {
				want = append([]string(nil), perLayer...)
			}
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s traced=%v prints\n  %v\nBENCHMARK.json declares\n  %v", w, traced, got, want)
			}
			for name, m := range res.summary.Metrics {
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}
