package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/service"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the tracer started; Ref names the request, job or config the span serves.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Ref    string `json:"ref,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the traced run's recorder. The run alternates untraced and
// traced repetitions (warm slices on warm_serve), so the difference between
// the two is the tracing overhead without a drift over the run in it. Spans
// stay in memory until finish writes them out. A nil tracer (an untraced
// run) records nothing.
type tracer struct {
	origin  time.Time
	dir     string
	workers int
	on      bool

	mu    sync.Mutex
	spans []span

	// Indexed by tracing state (0 off, 1 on), for the overhead.
	campaigns [2][]time.Duration
	warm      [2][]time.Duration

	// Server-side counters over the run's timed windows.
	hits, misses, reissues float64
	stageSec, campaignSec  float64
	jobRetries             int
	mergeMS, queueMS       []float64
	slowest, streamEvents  []float64

	// The warm path's public calls, timed one by one.
	lookup, resultFor, submit []time.Duration

	prof        bytes.Buffer
	profiling   bool
	profileDone bool

	layer map[string]metric
	notes []string
}

// detailUnits is how many replayed units per config record one span per
// call; warmCallReps is how often each warm-path call is timed per config.
const (
	detailUnits  = 2
	warmCallReps = 200
)

func newTracer(o options) *tracer {
	return &tracer{
		origin:  time.Now(),
		dir:     filepath.Join(o.dir, "trace-"+o.workload),
		workers: o.workers,
		layer:   make(map[string]metric),
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on }

// phase switches span recording on or off for the next repetition or
// slice. The first call starts the CPU profile, which covers every timed
// window of the run.
func (t *tracer) phase(on bool) {
	if t == nil {
		return
	}
	t.on = on
	if !t.profiling && !t.profileDone {
		if err := pprof.StartCPUProfile(&t.prof); err != nil {
			t.note("cpu profile not taken: %v", err)
			t.profileDone = true
			return
		}
		t.profiling = true
	}
}

// stopProfile ends the CPU profile at the end of the timed windows, before
// the gate and the replay run.
func (t *tracer) stopProfile() {
	if t != nil && t.profiling && !t.profileDone {
		pprof.StopCPUProfile()
		t.profileDone = true
	}
}

func (t *tracer) note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(name, ref string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, Start: t.ns(start), End: t.ns(end)})
	return id
}

// open records a span whose end close sets later.
func (t *tracer) open(name, ref string, parent int, start time.Time) int {
	return t.add(name, ref, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = t.ns(end)
	t.mu.Unlock()
}

// warmLatencies files a warm phase's latencies under the current phase.
func (t *tracer) warmLatencies(lat []time.Duration) {
	if t == nil {
		return
	}
	i := boolIndex(t.on)
	t.warm[i] = append(t.warm[i], lat...)
}

// window takes a timed window's /metrics difference into the run's totals.
func (t *tracer) window(diff *metrics.Snapshot) {
	if t == nil || diff == nil {
		return
	}
	v := func(name string, kv ...string) float64 {
		x, _ := diff.Value(name, kv...)
		return x
	}
	t.hits += v("leak_store_lookups_total", "result", "hit")
	t.misses += v("leak_store_lookups_total", "result", "miss")
	t.reissues += v("leak_sched_chunk_reissues_total")
	t.stageSec += v("leak_sched_stage_seconds_sum", "stage", "sim") + v("leak_sched_stage_seconds_sum", "stage", "decode")
}

// campaign records one timed campaign: its time under the current phase,
// its stream's shape and, when tracing, its span tree (campaign, then each
// point's job, then the job's /v1/trace spans) and the per-job waits,
// merges and retries.
func (t *tracer) campaign(c *http.Client, base string, run *campaignRun) error {
	if t == nil {
		return nil
	}
	t.campaigns[boolIndex(t.on)] = append(t.campaigns[boolIndex(t.on)], run.elapsed)
	t.campaignSec += run.elapsed.Seconds()
	t.streamEvents = append(t.streamEvents, float64(len(run.events)))
	slowest := 0.0
	for _, ev := range run.final {
		slowest = math.Max(slowest, ev.AtMS/1e3)
	}
	t.slowest = append(t.slowest, slowest)
	if !t.on {
		return nil
	}

	root := t.add("campaign", run.sub.Campaign, 0, run.started, run.started.Add(run.elapsed))
	t.add("http.post_campaign", run.sub.Campaign, root, run.started, run.posted)
	t.add("http.stream", run.sub.Campaign, root, run.posted, run.started.Add(run.elapsed))
	for _, pt := range run.sub.Points {
		tv, err := jobTrace(c, base, pt.Job)
		if err != nil {
			return err
		}
		t.job(tv, pt.Point, root)
	}
	return nil
}

// job turns one job's /v1/trace events into spans. Stage spans carry worker
// time summed over the pool, so on a parallel chunk they can start before
// the chunk did.
func (t *tracer) job(tv service.TraceView, label string, parent int) {
	at := func(ms float64) time.Time { return tv.Started.Add(time.Duration(ms * float64(time.Millisecond))) }
	id := t.open("job", tv.Job+" "+label, parent, tv.Started)
	chunk, admitted, issued, last := 0, 0.0, -1.0, 0.0
	for _, ev := range tv.Events {
		end := at(ev.AtMS)
		last = math.Max(last, ev.AtMS)
		units := fmt.Sprintf("units %d-%d", ev.UnitLo, ev.UnitHi)
		switch ev.Kind {
		case service.SpanAdmitted:
			admitted = ev.AtMS
		case service.SpanChunkIssue:
			if issued < 0 {
				issued = ev.AtMS
			}
			chunk = t.open("chunk", units, id, end)
		case service.SpanSimStage, service.SpanDecode, service.SpanStoreMerge:
			parent := id
			if chunk > 0 {
				parent = chunk
			}
			t.add(ev.Kind, units, parent, end.Add(-time.Duration(ev.DurMS*float64(time.Millisecond))), end)
			if ev.Kind == service.SpanStoreMerge {
				t.mergeMS = append(t.mergeMS, ev.DurMS)
				if chunk > 0 {
					t.close(chunk, end)
					chunk = 0
				}
			}
		}
	}
	t.close(id, at(last))
	if issued >= 0 {
		t.queueMS = append(t.queueMS, issued-admitted)
	}
	t.jobRetries += tv.Retries
}

// warmCalls times the warm path's public calls for each config whose
// tally the store holds: Store.Lookup, Tally.ResultFor, and an in-process
// Scheduler.Submit plus Done. A Submit that simulates is a failure.
func (t *tracer) warmCalls(stk *stack, pts []point, tallies []*experiment.Tally) error {
	if !t.enabled() {
		return nil
	}
	for i, p := range pts {
		tl := tallies[i]
		if tl == nil {
			continue
		}
		parent := t.open("warm_calls", p.Label, 0, time.Now())
		for r := 0; r < warmCallReps; r++ {
			t0 := time.Now()
			_, err := stk.store.Lookup(p.Key)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("store lookup %s: %w", p.Label, err)
			}
			t.lookup = append(t.lookup, t1.Sub(t0))
			t.add("store.Lookup", p.Label, parent, t0, t1)
		}
		for r := 0; r < warmCallReps; r++ {
			t0 := time.Now()
			sinkResult = tl.ResultFor(p.Config)
			t1 := time.Now()
			t.resultFor = append(t.resultFor, t1.Sub(t0))
			t.add("experiment.ResultFor", p.Label, parent, t0, t1)
		}
		for r := 0; r < warmCallReps/4; r++ {
			t0 := time.Now()
			job, err := stk.sched.Submit(p.Config, p.Prec)
			if err != nil {
				return fmt.Errorf("submit %s: %w", p.Label, err)
			}
			<-job.Done()
			t1 := time.Now()
			if st := job.Status(); !st.Cached {
				return fmt.Errorf("in-process warm submit of %s simulated %d units", p.Label, st.UnitsExecuted)
			}
			t.submit = append(t.submit, t1.Sub(t0))
			t.add("service.Submit+Done", p.Label, parent, t0, t1)
		}
		t.close(parent, time.Now())
	}
	return nil
}

// sinkResult keeps the timed ResultFor calls from being optimized away.
var sinkResult experiment.Result

// finish stops the profile, replays the cold configs' units, derives every
// per-layer metric and writes the spans and the profile to t.dir.
func (t *tracer) finish(o options, pts []point, tallies []*experiment.Tally) error {
	t.stopProfile()
	vals := map[string]float64{}
	if o.workload == "warm_serve" {
		t.note("unit-level layers: 0, no unit is simulated in the timed window")
	} else if err := t.unitLayers(o, pts, tallies, vals); err != nil {
		return err
	}
	for _, m := range unitMetrics {
		t.set(m.name, vals[m.name], m.unit)
	}
	t.serviceLayers()
	if err := t.profileShares(); err != nil {
		return err
	}
	return t.write()
}

// unitMetrics are the per-layer metrics measured on simulated units.
var unitMetrics = []struct{ name, unit string }{
	{"core.plan_ns_per_shot", "ns"}, {"core.observe_ns_per_shot", "ns"}, {"core.lrcs_per_round", "count"},
	{"circuit.compile_ns_per_shot", "ns"}, {"circuit.ops_per_round", "count"},
	{"batch.frame_ns_per_shot", "ns"},
	{"decoder.collect_ns_per_shot", "ns"}, {"decoder.decode_ns_per_shot", "ns"}, {"decoder.events_per_shot", "count"},
	{"experiment.unit_ms", "ms"}, {"experiment.sim_ns_per_shot", "ns"}, {"experiment.decode_ns_per_shot", "ns"},
	{"experiment.trace_coverage", "ratio"},
}

func (t *tracer) set(name string, v float64, unit string) {
	t.layer[name] = metric{Value: v, Unit: unit}
}

// unitLayers replays o.size.replayUnits units of every cold config, checks
// the replay against the service's tallies, times the runner itself over
// the same units with one worker, and fills vals with the unitMetrics.
func (t *tracer) unitLayers(o options, pts []point, tallies []*experiment.Tally, vals map[string]float64) error {
	n := o.size.replayUnits
	st := newReplayStats()
	var runNS, simNS, decNS int64
	var runShots int
	var unitMS []float64
	var lrcs, shotRounds int64
	for i, p := range pts {
		cfg := p.Config
		cfg.Workers = 1
		before := *st
		parent := t.open("replay", p.Label, 0, time.Now())
		replayUnits(cfg, o.seed^0x5eed, n, detailUnits, t, parent, st)
		t.close(parent, time.Now())
		if err := checkReplay(p, st.errors-before.errors, st.shots-before.shots,
			st.unitLRCs[before.units:], tallies[i]); err != nil {
			return err
		}
		tl := tallies[i]
		lrcs += tl.LRCs
		shotRounds += int64(tl.Shots) * int64(tl.Rounds)

		t0 := time.Now()
		tally, m, err := experiment.RunUnitsMeteredCtx(context.Background(), cfg, 0, n)
		if err != nil {
			return err
		}
		runNS += time.Since(t0).Nanoseconds()
		runShots += tally.Shots
		simNS += m.SimNS
		decNS += m.DecodeNS
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			experiment.RunUnits(cfg, 0, 1)
			unitMS = append(unitMS, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	perShot := func(ns int64) float64 { return float64(ns) / float64(st.shots) }
	vals["core.plan_ns_per_shot"] = perShot(st.ns[layerPlan])
	vals["core.observe_ns_per_shot"] = perShot(st.ns[layerObserve])
	vals["core.lrcs_per_round"] = float64(lrcs) / float64(shotRounds)
	vals["circuit.compile_ns_per_shot"] = perShot(st.ns[layerCompile])
	vals["circuit.ops_per_round"] = float64(st.ops) / float64(st.roundsTotal)
	vals["batch.frame_ns_per_shot"] = perShot(st.ns[layerFrame])
	vals["decoder.collect_ns_per_shot"] = perShot(st.ns[layerCollect])
	vals["decoder.decode_ns_per_shot"] = perShot(st.ns[layerDecode])
	vals["decoder.events_per_shot"] = float64(st.events) / float64(st.shots)
	vals["experiment.unit_ms"] = median(unitMS)
	vals["experiment.sim_ns_per_shot"] = float64(simNS) / float64(runShots)
	vals["experiment.decode_ns_per_shot"] = float64(decNS) / float64(runShots)
	vals["experiment.trace_coverage"] = perShot(st.unitNS) / (float64(runNS) / float64(runShots))

	t.note("replay: %d units of %d configs, %.0f ns/shot; RunUnits with 1 worker: %.0f ns/shot",
		st.units, len(pts), perShot(st.unitNS), float64(runNS)/float64(runShots))
	for _, l := range unitLayers {
		t.note("span share %-16s %5.1f%% of replay unit time", l, 100*float64(st.ns[l])/float64(st.unitNS))
	}
	return nil
}

// checkReplay requires the replay's LER and LRC rate to agree with the
// service's tally for the same config within 4 sigma. The two draw
// different shots, so this checks the replay models the same unit, not
// bit-equality. Logical errors are independent per shot, so the LER uses
// Wilson intervals. LRCs cluster within a shot, so the LRC rate uses the
// spread between the replay's units, each an independent sample.
func checkReplay(p point, errs, shots int, unitLRCs []int64, tl *experiment.Tally) error {
	if tl == nil || tl.Shots == 0 {
		return fmt.Errorf("%s: no service tally to check the replay against", p.Label)
	}
	const z = 4
	agree := func(k1, n1, k2, n2 float64) bool {
		lo1, hi1 := wilson(k1, n1, z)
		lo2, hi2 := wilson(k2, n2, z)
		return lo1 <= hi2 && lo2 <= hi1
	}
	if !agree(float64(errs), float64(shots), float64(tl.LogicalErrors), float64(tl.Shots)) {
		return fmt.Errorf("%s: replay LER %d/%d disagrees with service %d/%d", p.Label, errs, shots, tl.LogicalErrors, tl.Shots)
	}
	var sum, sumSq float64
	for _, l := range unitLRCs {
		sum += float64(l)
		sumSq += float64(l) * float64(l)
	}
	n := float64(len(unitLRCs))
	mean := sum / n
	variance := math.Max(0, (sumSq-n*mean*mean)/(n-1))
	serviceUnits := float64(tl.Shots) / float64(tl.UnitShots)
	serviceMean := float64(tl.LRCs) / serviceUnits
	if diff, se := math.Abs(mean-serviceMean), math.Sqrt(variance/n+variance/serviceUnits); diff > z*se {
		return fmt.Errorf("%s: replay %.1f LRCs per unit over %d units disagree with service %.1f over %.0f (4 sigma = %.1f)",
			p.Label, mean, len(unitLRCs), serviceMean, serviceUnits, z*se)
	}
	return nil
}

// wilson is the Wilson score interval for k successes in n trials.
func wilson(k, n, z float64) (lo, hi float64) {
	p := k / n
	den := 1 + z*z/n
	mid := (p + z*z/(2*n)) / den
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / den
	return mid - half, mid + half
}

func durMedianUS(ds []time.Duration) float64 { return 1e6 * median(seconds(ds)) }

// serviceLayers derives the store, service and campaign metrics from the
// run's scrapes, job traces and timed calls.
func (t *tracer) serviceLayers() {
	t.set("store.lookup_us", durMedianUS(t.lookup), "us")
	t.set("experiment.result_for_us", durMedianUS(t.resultFor), "us")
	submit := durMedianUS(t.submit)
	t.set("service.submit_warm_us", submit, "us")
	p50, _ := tailPercentile(t.warm[0], 50)
	t.set("service.http_warm_us", p50.Value.Seconds()*1e6-submit, "us")
	t.set("store.merge_ms", mean(t.mergeMS), "ms")
	ratio := 0.0
	if t.hits+t.misses > 0 {
		ratio = t.hits / (t.hits + t.misses)
	}
	t.set("store.hit_ratio", ratio, "ratio")
	t.set("service.queue_wait_ms", mean(t.queueMS), "ms")
	busy := 0.0
	if t.campaignSec > 0 {
		busy = t.stageSec / (float64(t.workers) * t.campaignSec)
	}
	t.set("service.busy_frac", busy, "ratio")
	t.set("service.retries", float64(t.jobRetries)+t.reissues, "count")
	t.set("campaign.slowest_point_s", median(t.slowest), "s")
	t.set("campaign.stream_events", median(t.streamEvents), "count")

	// Tracing overhead: traced against untraced repetitions of the same run.
	// warm_serve times no campaign untraced, so its overhead is on warm p50.
	off, on := median(seconds(t.campaigns[0])), median(seconds(t.campaigns[1]))
	what, nOff, nOn := "campaign_s", len(t.campaigns[0]), len(t.campaigns[1])
	if nOff == 0 {
		o50, _ := tailPercentile(t.warm[0], 50)
		on50, _ := tailPercentile(t.warm[1], 50)
		off, on, what, nOff, nOn = o50.Value.Seconds(), on50.Value.Seconds(), "warm p50", o50.N, on50.N
	}
	over := 0.0
	if off > 0 {
		over = on/off - 1
	}
	t.set("trace.overhead_frac", over, "ratio")
	t.note("tracing overhead: %s %.6g s untraced (n=%d) vs %.6g s traced (n=%d)", what, off, nOff, on, nOn)
}

// profileShares reports each package group's share of the run's CPU
// profile, to set beside the replay's span shares.
func (t *tracer) profileShares() error {
	shares := map[string]float64{}
	if t.profiling {
		s, total, err := cpuShares(t.prof.Bytes())
		if err != nil {
			return err
		}
		shares = s
		t.note("cpu profile: %.2f s sampled", float64(total)/1e9)
	}
	// Unit-level packages alone, comparable with the replay's span shares.
	unitLevel := []string{"core", "circuit", "batch", "decoder", "experiment"}
	unitSum := 0.0
	for _, g := range unitLevel {
		unitSum += shares[g]
	}
	for _, g := range profileGroups {
		t.set("profile."+g.name+"_frac", shares[g.name], "ratio")
		t.note("profile share %-12s %5.1f%% of sampled CPU", g.name, 100*shares[g.name])
	}
	if unitSum > 0 {
		for _, g := range unitLevel {
			t.note("profile share %-12s %5.1f%% of unit-level CPU", g, 100*shares[g]/unitSum)
		}
	}
	return nil
}

// write saves the spans (one JSON object a line) and the CPU profile.
func (t *tracer) write() error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(t.dir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t.note("trace: %d spans in %s", len(t.spans), path)
	if t.profiling {
		ppath := filepath.Join(t.dir, "cpu.pprof")
		if err := os.WriteFile(ppath, t.prof.Bytes(), 0o644); err != nil {
			return err
		}
		t.note("cpu profile in %s", ppath)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}
