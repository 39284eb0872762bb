package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a percentile for it to be
// resolved: p95 needs at least 200 samples, p50 at least 20.
const minTail = 10

// tailQ is the tail percentile every workload reports as p95_ms. On the
// reference host about 1% of wall time goes to host-level stalls (an idle
// process sees 1 ms sleeps overshoot by 0.4-3.5 ms at p99), which put
// open-loop p99s at the border between system time and host time and
// made them swing by more than any usable bound between runs; p95
// measures the system.
const tailQ = 0.95

// dist is a sorted sample of one timing, in milliseconds. A failed
// request enters it as +Inf, so it counts as missing every latency limit.
type dist struct {
	ms []float64
}

func newDist(samples []time.Duration) dist {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return newDistMs(ms)
}

func newDistMs(ms []float64) dist {
	sort.Float64s(ms)
	return dist{ms: ms}
}

// n is the sample count behind every percentile of the distribution.
func (d dist) n() int { return len(d.ms) }

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of the sample,
// or NaN for an empty one.
func (d dist) quantile(p float64) float64 {
	if len(d.ms) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(d.ms)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d.ms) {
		i = len(d.ms) - 1
	}
	return d.ms[i]
}

// resolved reports whether at least minTail samples lie beyond the
// p-quantile, the rule a reported percentile must meet.
func (d dist) resolved(p float64) bool {
	return resolvedAt(len(d.ms), p)
}

func resolvedAt(n int, p float64) bool {
	return float64(n)*(1-p) >= minTail-1e-9
}

// mean returns the arithmetic mean (NaN for an empty sample). Latency on
// the reference host is bimodal (requests either do or do not cross
// between the two cores), and the share in each mode shifts from run to
// run: the median jumps between the modes while the mean moves with the
// share, so the central latency metrics are means.
func (d dist) mean() float64 {
	if len(d.ms) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d.ms {
		s += v
	}
	return s / float64(len(d.ms))
}

// median returns the median of xs, the mean of the middle two for an
// even count (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// windowSet holds one figure per measurement window of a timed phase. A
// run reports the median over its windows, so a burst of host stalls
// moves the windows it falls in rather than the run's figure.
type windowSet struct {
	mean, tail, rate []float64
}

// add records a window's mean, tail percentile and completion rate.
func (w *windowSet) add(d dist, elapsed time.Duration) {
	w.mean = append(w.mean, d.mean())
	w.tail = append(w.tail, d.quantile(tailQ))
	w.rate = append(w.rate, float64(d.n())/elapsed.Seconds())
}

func (w *windowSet) n() int { return len(w.mean) }

// describe renders "p50 1.2340 ms, p95 3.4560 ms, p99 5.6780 ms (n=1234)"
// with a flag on percentiles the sample count does not resolve.
func (d dist) describe() string {
	var b strings.Builder
	for i, p := range []float64{0.5, 0.95, 0.99} {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "p%g %.4f ms", p*100, d.quantile(p))
		if !d.resolved(p) {
			b.WriteString(" (unresolved)")
		}
	}
	fmt.Fprintf(&b, ", mean %.4f ms (n=%d)", d.mean(), d.n())
	return b.String()
}

// metricName is the charset every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// value is one reported metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metrics collects named values against a declared set.
type metrics struct {
	defs map[string]metricDef
	vals map[string]value
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{defs: map[string]metricDef{}, vals: map[string]value{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

// set records a declared metric; setting an undeclared one is a bug.
func (m *metrics) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m.vals[name] = value{Value: v, Unit: d.Unit}
}

// complete fills every declared metric not set by the workload with 0:
// the layer is not on this workload's path, so nothing was measured in it.
func (m *metrics) complete() {
	for name, d := range m.defs {
		if _, ok := m.vals[name]; !ok {
			m.vals[name] = value{Value: 0, Unit: d.Unit}
		}
	}
}

// check verifies that every declared metric has a finite value and a
// valid name, and that no undeclared one slipped in.
func (m *metrics) check() error {
	for name, v := range m.vals {
		if _, ok := m.defs[name]; !ok {
			return fmt.Errorf("undeclared metric %q", name)
		}
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", name, v.Value)
		}
	}
	for name := range m.defs {
		if _, ok := m.vals[name]; !ok {
			return fmt.Errorf("metric %s not reported", name)
		}
	}
	return nil
}

// encode renders the result line.
func (r result) encode() ([]byte, error) {
	return json.Marshal(r)
}

// tally counts one phase's outcomes.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// usMean converts a total duration over n operations to microseconds per
// operation (0 when nothing ran).
func usMean(total time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(time.Microsecond)
}

// encodeRecord renders a run's metadata and result for the record file.
func encodeRecord(m *meta, r result) ([]byte, error) {
	return json.MarshalIndent(struct {
		Meta   *meta  `json:"meta"`
		Result result `json:"result"`
	}{m, r}, "", "  ")
}
