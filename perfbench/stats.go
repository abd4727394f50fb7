package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile for
// it to mean anything: p99 needs at least 1000 samples.
const tailSamples = 10

// tail is a latency percentile as reported: which whole percentile it is
// (the highest one not above the requested one that keeps tailSamples
// beyond it), its value, and the sample count it came from.
type tail struct {
	Pct   int
	Value time.Duration
	N     int
}

// tailPercentile applies the reporting rule to an unsorted sample: the
// requested whole percentile wantPct when at least tailSamples samples lie
// beyond it, otherwise the highest whole percentile that has them (never
// below the median). Values are nearest-rank. It reports false when the
// sample is too small even for the median.
func tailPercentile(samples []time.Duration, wantPct int) (tail, bool) {
	n := len(samples)
	for pct := wantPct; pct >= 50; pct-- {
		at := (pct*n + 99) / 100 // nearest rank, 1-based
		if n-at < tailSamples || at < 1 {
			continue
		}
		sorted := append([]time.Duration(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return tail{Pct: pct, Value: sorted[at-1], N: n}, true
	}
	return tail{N: n}, false
}

// tailWindow is how many consecutive warm requests one tail window holds:
// enough that p99 keeps tailSamples samples beyond it.
const tailWindow = 1200

// windowedTail splits samples, in completion order, into consecutive
// windows of size window (a short last window is dropped unless it is the
// only one), applies tailPercentile to each, and returns the window values'
// median with the lowest percentile any window used, the total sample count
// and the number of windows. One stall then moves one window's tail, not
// the reported one.
func windowedTail(samples []time.Duration, window, wantPct int) (t tail, windows int, ok bool) {
	var vals []float64
	pct := 0
	for lo := 0; lo < len(samples); lo += window {
		hi := lo + window
		if hi > len(samples) {
			if lo > 0 {
				break
			}
			hi = len(samples)
		}
		w, ok := tailPercentile(samples[lo:hi], wantPct)
		if !ok {
			break
		}
		if pct == 0 || w.Pct < pct {
			pct = w.Pct
		}
		vals = append(vals, w.Value.Seconds())
	}
	if len(vals) == 0 {
		return tail{N: len(samples)}, 0, false
	}
	return tail{Pct: pct, Value: time.Duration(median(vals) * float64(time.Second)), N: len(samples)}, len(vals), true
}

// rateWindow is how many consecutive warm completions one throughput
// window holds: long enough to span a garbage collection cycle of the warm
// server, so a window's rate does not depend on where the cycles fall.
const rateWindow = 2500

// windowRates splits completion times, sorted and all after start, into
// consecutive windows of size window (a short last window is dropped unless
// it is the only one) and returns each window's completions per second,
// measured from the previous window's last completion (from start for the
// first). The median of these
// is the reported throughput, so one stall slows one window, not the run.
func windowRates(start time.Time, ends []time.Time, window int) []float64 {
	if len(ends) < window {
		window = len(ends)
	}
	var rates []float64
	prev := start
	for hi := window; hi > 0 && hi <= len(ends); hi += window {
		end := ends[hi-1]
		if dt := end.Sub(prev).Seconds(); dt > 0 {
			rates = append(rates, float64(window)/dt)
		}
		prev = end
	}
	return rates
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
