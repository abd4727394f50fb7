package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/service"
)

// Workloads. Every campaign client and warm client is closed-loop: it sends
// its next request only after the previous reply has arrived.
//
//   - fig14_cold: the paper's Figure-14 campaign (eraser, always, eraser+m,
//     optimal at d=3,5, p=1e-3, 10 cycles) to an adaptive CI target, against
//     a fresh store each repetition. The adaptive policies run beside the
//     frame simulator and decoder on every round, so a policy, compile or
//     frame change shows here.
//   - static_decode: NoLRC and Always at d=5, p=1e-3, 10 cycles with a fixed
//     shot count, through the same campaign path. Static policies take the
//     constant-plan worker and decoding leakage-flooded syndromes dominates,
//     so a decoder change shows here and a policy change must not.
//   - warm_serve: rounds on fresh stores. Each round's set-up primes the
//     store with the Figure-14 grid at 10 cycles, one unit a point (the
//     timed campaign); then closed-loop clients POST /v1/run and GET
//     /v1/result for pool configs. No unit is simulated after priming, so
//     only admission, store lookup, result derivation, JSON and HTTP work.
var workloadNames = []string{"fig14_cold", "static_decode", "warm_serve"}

// sizes fixes how much work one campaign and one warm phase carry; the
// benchmark uses fullSizes, the tests a tiny variant.
type sizes struct {
	fig14Target    float64 // adaptive Wilson half-width target of fig14_cold
	fig14MaxShots  int     // per-point shot cap of fig14_cold
	staticShots    int     // fixed shots per static_decode point
	poolShots      int     // fixed shots per warm_serve pool config
	warmPerClient  int     // warm requests per client after each cold campaign
	slicePerClient int     // warm requests per client in each warm_serve slice
	warmSlices     int     // warm slices per warm_serve round (even: a traced run alternates)
	warmRounds     int     // warm_serve rounds per run, at least
	minReps        int     // timed campaigns per run, at least
	replayUnits    int     // units per cold config in the traced replay
}

var fullSizes = sizes{
	fig14Target:    0.004,
	fig14MaxShots:  4096,
	staticShots:    2048,
	poolShots:      64,
	warmPerClient:  tailWindow,
	slicePerClient: 2500,
	warmSlices:     2,
	warmRounds:     5,
	minReps:        3,
	replayUnits:    32,
}

// manifest returns the workload's timed campaign for a seed.
func manifest(name string, seed uint64, sz sizes) campaign.Manifest {
	switch name {
	case "fig14_cold":
		return campaign.Figure14Manifest([]int{3, 5}, 1e-3,
			service.ConfigSpec{Cycles: 10, Seed: seed},
			service.Precision{TargetCIHalfWidth: sz.fig14Target, MaxShots: sz.fig14MaxShots})
	case "static_decode":
		return campaign.Manifest{
			Name:     "static_decode",
			Base:     service.ConfigSpec{Distance: 5, Cycles: 10, P: 1e-3, Shots: sz.staticShots, Seed: seed},
			Policies: []string{"nolrc", "always"},
		}
	default: // warm_serve: the pool the set-up primes
		return campaign.Figure14Manifest([]int{3, 5}, 1e-3,
			service.ConfigSpec{Cycles: 10, Shots: sz.poolShots, Seed: seed}, service.Precision{})
	}
}

// warmupManifest is the cold workloads' set-up pass: one unit per point of
// the same grid under another seed, so every code path (and the decoder's
// shared precompute) has run once and the timed campaign's keys stay cold.
func warmupManifest(m campaign.Manifest) campaign.Manifest {
	m.Name += "_warmup"
	m.Base.Seed ^= 0x9e3779b97f4a7c15
	m.Base.Shots = 64
	m.Precision = service.Precision{}
	return m
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory for stores and trace output
	workers  int    // scheduler workers and client connections
	size     sizes
}

// storeDir is this process's store directory; the pid keeps two runs that
// share a scratch directory apart.
func (o options) storeDir() string {
	return filepath.Join(o.dir, fmt.Sprintf("store-%d", os.Getpid()))
}

// runData is everything one run measured.
type runData struct {
	setup     []time.Duration
	campaigns []time.Duration
	shotRates []float64
	warmLat   []time.Duration // in completion order
	warmReqs  int
	warmRates []float64 // completions per second of each rate window

	attempted, failed int
	errs              []string
	work              []string // shots per point of the timed campaign

	tr *tracer // nil unless the run is traced
}

func (d *runData) fail(err error) {
	d.failed++
	if len(d.errs) < 8 {
		d.errs = append(d.errs, err.Error())
	}
}

// check counts one attempted operation and its failure, if any.
func (d *runData) check(err error) {
	d.attempted++
	if err != nil {
		d.fail(err)
	}
}

// point pairs an expanded manifest point with its warm-request body.
type point struct {
	campaign.Point
	body []byte
}

func expand(m campaign.Manifest) ([]point, error) {
	pts, err := m.Expand()
	if err != nil {
		return nil, err
	}
	out := make([]point, len(pts))
	for i, p := range pts {
		body, err := json.Marshal(service.RunRequest{Config: p.Spec, Precision: p.Prec})
		if err != nil {
			return nil, err
		}
		out[i] = point{Point: p, body: body}
	}
	return out, nil
}

// run executes one workload for o.seconds and returns its measurements. An
// error means the benchmark itself could not run; failures of the system
// under test are counted in runData instead.
func run(o options) (*runData, error) {
	d := &runData{}
	if o.trace {
		d.tr = newTracer(o)
	}
	c := newClient(o.workers)
	defer c.CloseIdleConnections()
	var pts []point
	var tallies []*experiment.Tally
	var err error
	if o.workload == "warm_serve" {
		pts, tallies, err = runWarm(o, c, d)
	} else {
		pts, tallies, err = runCold(o, c, d)
	}
	if err != nil {
		return nil, err
	}
	if d.tr != nil {
		if err := d.tr.finish(o, pts, tallies); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// repSeed derives repetition rep's campaign seed from the workload seed.
// Each repetition of a cold workload runs its own seed, so the per-seed
// spread in decoding work averages out over a run instead of between runs.
func repSeed(seed uint64, rep int) uint64 {
	return seed ^ uint64(rep)*0x9e3779b97f4a7c15
}

// scrapeDiff returns what the server's counters did since before.
func scrapeDiff(c *http.Client, base string, before *metrics.Snapshot) (*metrics.Snapshot, error) {
	now, err := scrape(c, base)
	if err != nil {
		return nil, err
	}
	return now.Sub(before), nil
}

// runCold repeats set-up, one cold campaign and a short warm phase over the
// campaign's points, each repetition with its own seed on a fresh store,
// until the run time is spent. The gate then checks every repetition's
// tallies against direct RunUnits calls. It returns the first repetition's
// points and tallies.
func runCold(o options, c *http.Client, d *runData) ([]point, []*experiment.Tally, error) {
	type repetition struct {
		pts     []point
		tallies []*experiment.Tally
	}
	var reps []repetition
	start := time.Now()
	for rep := 0; rep < o.size.minReps || time.Since(start).Seconds() < o.seconds; rep++ {
		d.tr.phase(rep%2 == 1)
		man := manifest(o.workload, repSeed(o.seed, rep), o.size)
		pts, err := expand(man)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		stk, err := startStack(o.storeDir(), o.workers)
		if err != nil {
			return nil, nil, err
		}
		_, err = runCampaign(c, stk.base, warmupManifest(man))
		d.check(err)
		d.setup = append(d.setup, time.Since(t0))

		before, err := scrape(c, stk.base)
		if err != nil {
			stk.stop()
			return nil, nil, err
		}
		runtime.GC()
		run, err := runCampaign(c, stk.base, man)
		d.check(err)
		if err == nil {
			d.campaigns = append(d.campaigns, run.elapsed)
			d.shotRates = append(d.shotRates, float64(run.shots())/run.elapsed.Seconds())
			diff, err := scrapeDiff(c, stk.base, before)
			if err == nil {
				d.tr.window(diff)
				err = d.tr.campaign(c, stk.base, run)
			}
			d.check(err)
		}

		tallies := make([]*experiment.Tally, len(pts))
		for i, p := range pts {
			t, err := stk.store.Lookup(p.Key)
			if err == nil && t == nil {
				err = fmt.Errorf("%s: no tally in the store", p.Label)
			}
			d.check(err)
			tallies[i] = t
		}
		if rep == 0 {
			for i, p := range pts {
				if tallies[i] != nil {
					d.work = append(d.work, fmt.Sprintf("%s %d (LER %.4f)", p.Label, tallies[i].Shots,
						float64(tallies[i].LogicalErrors)/float64(tallies[i].Shots)))
				}
			}
		}
		reps = append(reps, repetition{pts, tallies})
		warmPhase(c, stk, pts, tallies, o.workers, o.size.warmPerClient, d)
		d.check(d.tr.warmCalls(stk, pts, tallies))
		if err := stk.stop(); err != nil {
			return nil, nil, err
		}
	}
	d.tr.stopProfile()
	for _, r := range reps {
		for i, p := range r.pts {
			d.check(gateTally(p.Config, r.tallies[i]))
		}
	}
	return reps[0].pts, reps[0].tallies, nil
}

// runWarm repeats warm rounds, each on a fresh stack, until the run time is
// spent; the last round's stack stays up for the traced warm-path calls.
// Each round's priming campaign is a set-up and a timed campaign. A round
// sends a fixed number of warm requests: completed jobs stay in memory for
// a minute, so a fixed duration on one stack would tie rss_peak_mb to
// throughput. Rounds fill the whole run with timed warm requests at a
// bounded peak memory.
func runWarm(o options, c *http.Client, d *runData) (_ []point, _ []*experiment.Tally, err error) {
	man := manifest(o.workload, o.seed, o.size)
	pts, err := expand(man)
	if err != nil {
		return nil, nil, err
	}
	var stk *stack
	defer func() {
		if stk != nil {
			if serr := stk.stop(); err == nil {
				err = serr
			}
		}
	}()
	var primed []*experiment.Tally
	start := time.Now()
	for round := 0; round < o.size.warmRounds || time.Since(start).Seconds() < o.seconds; round++ {
		if stk != nil {
			if err := stk.stop(); err != nil {
				return nil, nil, err
			}
			stk = nil
		}
		stk, primed, err = warmRound(o, c, d, man, pts)
		if err != nil {
			return nil, nil, err
		}
	}
	d.tr.stopProfile()
	d.check(d.tr.warmCalls(stk, pts, primed))
	return pts, primed, nil
}

// warmRound starts a fresh stack, primes it with the pool campaign (timed
// as a set-up and as a campaign), gates the primed tallies, runs the warm
// slices, and re-POSTs the pool campaign, which must be fully cached. No
// unit may be simulated after priming. The cached campaign is not timed: it
// ends at the campaign monitor's first or second sample, 25 ms apart,
// whichever finds its jobs done, and which one that is varies from run to
// run. It returns the running stack and the primed tallies.
func warmRound(o options, c *http.Client, d *runData, man campaign.Manifest, pts []point) (
	_ *stack, _ []*experiment.Tally, err error) {
	runtime.GC() // the previous round's jobs are garbage now
	t0 := time.Now()
	stk, err := startStack(o.storeDir(), o.workers)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			stk.stop()
		}
	}()
	run, err := runCampaign(c, stk.base, man)
	d.check(err)
	d.setup = append(d.setup, time.Since(t0))
	if err == nil {
		d.campaigns = append(d.campaigns, run.elapsed)
		d.shotRates = append(d.shotRates, float64(run.shots())/run.elapsed.Seconds())
	}

	primed := make([]*experiment.Tally, len(pts))
	for i, p := range pts {
		t, err := stk.store.Lookup(p.Key)
		if err == nil {
			err = gateTally(p.Config, t)
		}
		d.check(err)
		primed[i] = t
	}

	first, err := scrape(c, stk.base)
	if err != nil {
		return nil, nil, err
	}
	// Slices alternate untraced and traced in a traced run.
	for i := 0; i < o.size.warmSlices; i++ {
		d.tr.phase(i%2 == 1)
		warmPhase(c, stk, pts, primed, o.workers, o.size.slicePerClient, d)
	}
	run, err = runCampaign(c, stk.base, man)
	if err == nil {
		for _, ev := range run.final {
			if !ev.Cached {
				err = fmt.Errorf("warm campaign point %s simulated %d units", ev.Point, ev.ColdUnits)
			}
		}
	}
	d.check(err)
	if err == nil {
		d.check(d.tr.campaign(c, stk.base, run))
	}

	all, err := scrapeDiff(c, stk.base, first)
	if err != nil {
		return nil, nil, err
	}
	d.tr.window(all)
	units, ok := all.Value("leak_sched_units_total")
	if !ok {
		err = fmt.Errorf("leak_sched_units_total missing from /metrics")
	} else if units != 0 {
		err = fmt.Errorf("warm_serve simulated %v units after priming", units)
	}
	d.check(err)
	return stk, primed, nil
}

// warmPhase runs `clients` closed-loop clients, each sending perClient warm
// requests for the points in turn. Every reply is gated against the tally
// the store held for its point.
func warmPhase(c *http.Client, stk *stack, pts []point, tallies []*experiment.Tally,
	clients, perClient int, d *runData) {
	type clientLog struct {
		lat  []time.Duration
		end  []time.Time
		errs []error
	}
	logs := make([]clientLog, clients)
	wants := primedResults(pts, tallies)
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			lg := &logs[cl]
			for i := 0; i < perClient; i++ {
				k := (cl + i*clients) % len(pts)
				t0 := time.Now()
				rep, err := warmRequest(c, stk.base, pts[k].body, d.tr, pts[k].Label)
				lat := time.Since(t0)
				if err == nil {
					err = gateWarm(rep, wants[k], pts[k].Config)
				}
				lg.errs = append(lg.errs, err)
				if err == nil {
					lg.lat = append(lg.lat, lat)
					lg.end = append(lg.end, t0.Add(lat))
				}
			}
		}(cl)
	}
	wg.Wait()
	type done struct {
		end time.Time
		lat time.Duration
	}
	var all []done
	for _, lg := range logs {
		for _, err := range lg.errs {
			d.check(err)
		}
		for i := range lg.lat {
			all = append(all, done{lg.end[i], lg.lat[i]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end.Before(all[j].end) })
	lat := make([]time.Duration, len(all))
	ends := make([]time.Time, len(all))
	for i, x := range all {
		lat[i] = x.lat
		ends[i] = x.end
	}
	d.warmRates = append(d.warmRates, windowRates(start, ends, rateWindow)...)
	d.warmReqs += len(lat)
	d.warmLat = append(d.warmLat, lat...)
	d.tr.warmLatencies(lat)
}
