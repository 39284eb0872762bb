package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeResult parses a result line, rejecting unknown keys.
func decodeResult(line []byte) (result, error) {
	var r result
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return result{}, err
	}
	return r, nil
}

func TestQuantileNearestRank(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(100 - i) // unsorted on purpose
	}
	d := newDistMs(ms)
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := d.quantile(c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if d.n() != 100 {
		t.Errorf("n = %d, want 100", d.n())
	}
	if got := d.mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	if !math.IsNaN(newDistMs(nil).quantile(0.5)) {
		t.Error("empty sample must give NaN")
	}
	// A failed request enters as +Inf and so misses any limit.
	withFail := newDistMs([]float64{1, 2, math.Inf(1)})
	if !math.IsInf(withFail.quantile(1), 1) {
		t.Error("failure must sort last as +Inf")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
		{200, 0.95, true}, {199, 0.95, false},
	} {
		if got := resolvedAt(c.n, c.p); got != c.want {
			t.Errorf("resolvedAt(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPoissonScheduleIsDeterministic(t *testing.T) {
	const rate, dur = 500.0, 4 * time.Second
	a := poissonSchedule(7, rate, dur)
	b := poissonSchedule(7, rate, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, rate, dur)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, due := range a {
		if due < 0 || due >= dur || (i > 0 && due < a[i-1]) {
			t.Fatalf("due time %d = %v out of order or range", i, due)
		}
	}
	// 2000 expected arrivals; 5 standard deviations is about 225.
	if n := len(a); math.Abs(float64(n)-rate*dur.Seconds()) > 225 {
		t.Errorf("%d arrivals at %v/s over %v", n, rate, dur)
	}
}

func TestOpenLoopTimesFromDueAndCountsFailures(t *testing.T) {
	// Three requests due at once on one connection, each served in 20 ms:
	// queueing behind the earlier ones counts, so latency grows 20, 40, 60.
	sched := []time.Duration{0, 0, 0}
	fail := errors.New("refused")
	r := runOpen(sched, 1, func(w, i int, due time.Time) error {
		time.Sleep(20 * time.Millisecond)
		if i == 2 {
			return fail
		}
		return nil
	})
	if r.tally.attempted != 3 || r.tally.failed != 1 {
		t.Fatalf("tally %+v, want 3 attempted, 1 failed", r.tally)
	}
	if got := r.lat.quantile(0.5); got < 39 || got > 200 {
		t.Errorf("second request's latency %.1f ms, want about 40", got)
	}
	if !math.IsInf(r.lat.quantile(1), 1) {
		t.Error("the failed request must count as +Inf")
	}
	if r.late.n() != 3 {
		t.Errorf("lateness samples %d, want 3", r.late.n())
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, d := range append(endToEndDefs(), perLayerDefs()...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("declared metric %q outside [A-Za-z0-9_.-]", d.Name)
		}
	}
	for _, bad := range []string{"", "p50 ms", "a/b", "_lead", "é", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
}

func TestMetricsCheck(t *testing.T) {
	m := newMetrics(endToEndDefs())
	m.set("mean_ms", 1.5)
	m.complete()
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
	m.set("p95_ms", math.NaN())
	if m.check() == nil {
		t.Error("NaN metric passed the check")
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric must panic")
		}
	}()
	m.set("nope", 1)
}

func TestResultRoundTrip(t *testing.T) {
	m := newMetrics(endToEndDefs())
	for i, d := range endToEndDefs() {
		m.set(d.Name, 1.25+float64(i)/3)
	}
	in := result{Correct: true, Attempted: 1000, Failed: 2, Metrics: m.vals}
	line, err := in.encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeResult(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the result:\n%+v\n%+v", in, out)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	if _, err := decodeResult([]byte(`{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}`)); err == nil {
		t.Error("unknown key accepted")
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the code's metric tables and
// the repository's BENCHMARK.json in step.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEndDefs()) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\ncode           %v", bench.EndToEnd, endToEndDefs())
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %v\ncode           %v", bench.PerLayer, perLayerDefs())
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bench.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", declared, names)
	}
}

func TestClosedLoopKeepsConnectionsBusy(t *testing.T) {
	// Two connections, each request served in 5 ms, for 100 ms: about 40
	// requests, numbered without gaps, every one timed from its send.
	fail := errors.New("refused")
	var mu sync.Mutex
	seen := map[int]bool{}
	r := runClosed(2, 100*time.Millisecond, func(w, i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		if i == 0 {
			return fail
		}
		return nil
	})
	n := r.lat.n()
	if n < 20 || n > 44 {
		t.Errorf("%d requests, want about 40", n)
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			t.Fatalf("request %d of %d never sent", i, n)
		}
	}
	if r.tally.attempted != int64(n) || r.tally.failed != 1 {
		t.Errorf("tally %+v, want %d attempted, 1 failed", r.tally, n)
	}
	if got := r.lat.quantile(0.5); got < 4.9 || got > 50 {
		t.Errorf("median latency %.2f ms, want about 5", got)
	}
	if !math.IsInf(r.lat.quantile(1), 1) {
		t.Error("the failed request must count as +Inf")
	}
	if r.elapsed < 100*time.Millisecond {
		t.Errorf("elapsed %v, shorter than the run", r.elapsed)
	}
}

func TestWindowSetTakesEachWindowsFigures(t *testing.T) {
	var w windowSet
	w.add(newDistMs([]float64{1, 2, 3, 4}), 2*time.Second)
	w.add(newDistMs([]float64{10}), time.Second)
	if w.n() != 2 {
		t.Fatalf("%d windows, want 2", w.n())
	}
	want := windowSet{mean: []float64{2.5, 10}, tail: []float64{4, 10}, rate: []float64{2, 1}}
	if !reflect.DeepEqual(w, want) {
		t.Errorf("windows %+v, want %+v", w, want)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median must be NaN")
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if off.add("x", 0, 1, time.Now(), time.Now()) != 0 || off.reserve() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	tr := newTracer()
	t0 := time.Now()
	root := tr.reserve()
	child := tr.add("edge.local", root, 1, t0, t0.Add(3*time.Millisecond))
	tr.finish(root, "request", 0, 1, t0, t0.Add(5*time.Millisecond))
	if child == 0 || child == root {
		t.Fatalf("span IDs root %d child %d", root, child)
	}
	tot := tr.totals()
	if got := tot.us("edge.local"); math.Abs(got-3000) > 1e-6 {
		t.Errorf("edge.local mean %v us, want 3000", got)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Parent != root || spans[1].Name != "request" {
		t.Errorf("spans %+v", spans)
	}
}
