// Command perfbench is the repository's benchmark. It starts the real
// service stack in-process on loopback (an on-disk store, the scheduler with
// one worker per CPU, the HTTP handler with the campaign routes), drives one
// workload against it from closed-loop clients, checks every output, and
// prints each metric by name with its unit and sample count. The last line
// of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is traced and the metrics are the per-layer ones. Run it through
// perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload fig14_cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same configs")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build/run", "scratch directory for the store and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !validWorkload(*workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %v, -seconds > 0 and -trace 0|1\n", workloadNames)
		return 2
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		dir:      *dir,
		workers:  runtime.NumCPU(),
		size:     fullSizes,
	}
	prov := readProvenance(o)
	fmt.Fprintf(stdout, "provenance: %s\n", prov)
	if warn := prov.checkPrevious(o.dir); warn != "" {
		fmt.Fprintln(stdout, warn)
	}

	d, err := run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := report(o, d)
	for _, line := range res.lines {
		fmt.Fprintln(stdout, line)
	}
	for _, e := range d.errs {
		fmt.Fprintf(stdout, "failure: %s\n", e)
	}
	out, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.summary.Correct {
		return 1
	}
	return 0
}

func validWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	summary summary
	lines   []string // human-readable metric lines, printed before the JSON
}

// report turns a run's measurements into the printed metrics: the
// end-to-end set for an untraced run, the per-layer set for a traced one.
func report(o options, d *runData) result {
	res := result{summary: summary{
		Correct:   d.failed == 0,
		Attempted: d.attempted,
		Failed:    d.failed,
		Metrics:   make(map[string]metric),
	}}
	add := func(name string, v float64, unit, note string) {
		res.summary.Metrics[name] = metric{Value: v, Unit: unit}
		res.lines = append(res.lines, fmt.Sprintf("%-32s %14.6g %-6s %s", name, v, unit, note))
	}
	failedFrac := 0.0
	if d.attempted > 0 {
		failedFrac = float64(d.failed) / float64(d.attempted)
	}
	if len(d.work) > 0 {
		res.lines = append(res.lines, "shots per point: "+strings.Join(d.work, ", "))
	}
	failLine := fmt.Sprintf("%-32s %14.6g %-6s (n=%d attempted)", "failed_frac", failedFrac, "1", d.attempted)

	if o.trace {
		names := make([]string, 0, len(d.tr.layer))
		for name := range d.tr.layer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := d.tr.layer[name]
			add(name, m.Value, m.Unit, "")
		}
		res.lines = append(res.lines, d.tr.notes...)
		res.lines = append(res.lines, failLine)
		return res
	}

	n := func(k int) string { return fmt.Sprintf("(median, n=%d)", k) }
	add("setup_s", median(seconds(d.setup)), "s", n(len(d.setup)))
	add("campaign_s", median(seconds(d.campaigns)), "s", n(len(d.campaigns)))
	add("shots_per_s", median(d.shotRates), "1/s", n(len(d.shotRates)))
	p50, _ := tailPercentile(d.warmLat, 50)
	add("warm_p50_ms", ms(p50), "ms", fmt.Sprintf("(p50, n=%d)", p50.N))
	pTail, windows, _ := windowedTail(d.warmLat, tailWindow, 99)
	add("warm_p99_ms", ms(pTail), "ms", fmt.Sprintf("(median of %d window p%ds, %d requests a window, n=%d)",
		windows, pTail.Pct, tailWindow, pTail.N))
	add("warm_rps", median(d.warmRates), "1/s", fmt.Sprintf("(median of %d windows, %d requests a window, n=%d requests)",
		len(d.warmRates), rateWindow, d.warmReqs))
	add("rss_peak_mb", peakRSSMB(), "MB", "(VmHWM of this process)")
	res.lines = append(res.lines, failLine)
	return res
}

func ms(t tail) float64 { return t.Value.Seconds() * 1e3 }
