package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// opStat counts one operation type of a run. Latency samples are kept
// exactly, one per timed operation; quantiles are read from them, not
// from histogram buckets.
type opStat struct {
	name      string
	attempted int
	failed    int
	samples   []time.Duration
	windows   [][]time.Duration // the same samples, by window of the timed phase
}

// windows is how many equal windows a timed phase is cut into. A
// latency or rate is reported as the median of its per-window values,
// so one slow spell of the shared host moves it less than a pooled
// figure would move.
const windows = 5

// clock maps a moment of a timed phase to its window.
type clock struct {
	t0  time.Time
	len time.Duration
}

func newClock(phase time.Duration) clock { return clock{time.Now(), phase} }

func (c clock) window() int {
	return min(int(time.Since(c.t0)*windows/c.len), windows-1)
}

func (o *opStat) record(w int, d time.Duration) {
	o.samples = append(o.samples, d)
	for len(o.windows) <= w {
		o.windows = append(o.windows, nil)
	}
	o.windows[w] = append(o.windows[w], d)
}

// windowed returns the median over windows of each window's q-quantile.
func (o *opStat) windowed(q float64) time.Duration {
	var per []time.Duration
	for _, w := range o.windows {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return quantile(per, 0.5)
}

// rate returns the median over windows of completed operations per
// second; window i runs from bounds[i] to bounds[i+1].
func (o *opStat) rate(bounds []time.Time) float64 {
	var per []float64
	for i, w := range o.windows {
		if i+1 < len(bounds) && len(w) > 0 {
			per = append(per, float64(len(w))/bounds[i+1].Sub(bounds[i]).Seconds())
		}
	}
	return medianF(per)
}

// bounds returns the window boundaries of a phase that ended at end.
func (c clock) bounds(end time.Time) []time.Time {
	b := make([]time.Time, windows+1)
	for i := range b {
		b[i] = c.t0.Add(c.len * time.Duration(i) / windows)
	}
	b[windows] = end
	return b
}

// merged pools several operation types' samples window by window.
func merged(ops ...*opStat) *opStat {
	m := &opStat{}
	for _, o := range ops {
		for w, ds := range o.windows {
			for _, d := range ds {
				m.record(w, d)
			}
		}
	}
	return m
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// quantile returns the nearest-rank q-quantile of the samples.
func (o *opStat) quantile(q float64) time.Duration {
	return quantile(o.samples, q)
}

func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's operations, metrics and the counted
// quantities that must repeat exactly for a given seed.
type run struct {
	ops     []*opStat
	metrics map[string]metric
	counts  map[string]float64
	tr      *tracer // nil unless this is the traced run

	mu    sync.Mutex // guards errs; checks run on several goroutines
	errs  []string
	notes []string // diagnostics for standard error
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func newRun() *run {
	return &run{metrics: map[string]metric{}, counts: map[string]float64{}}
}

func (r *run) op(name string) *opStat {
	for _, o := range r.ops {
		if o.name == name {
			return o
		}
	}
	o := &opStat{name: name}
	r.ops = append(r.ops, o)
	return o
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// count records a quantity that does not depend on timing; it is also
// reported as a metric when unit is non-empty.
func (r *run) count(name, unit string, v float64) {
	r.counts[name] = v
	if unit != "" {
		r.set(name, unit, v)
	}
}

// fail records a wrong answer; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// recount compares a second measurement of the counted quantities with
// the first, failing the run on any difference.
func (r *run) recount(again map[string]float64) {
	for k, v := range again {
		if w, ok := r.counts[k]; ok && w != v {
			r.fail("counted quantity %s not repeatable: %v then %v", k, w, v)
		}
	}
}

func (r *run) report() report {
	rep := report{Correct: len(r.errs) == 0, Metrics: r.metrics}
	for _, o := range r.ops {
		rep.Attempted += o.attempted
		rep.Failed += o.failed
	}
	return rep
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func us(d time.Duration) float64   { return float64(d) / 1e3 }
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }
