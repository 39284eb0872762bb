// Command perfbench is the repository's end-to-end benchmark: it drives
// Shredder's real request path (edge forward, noise, wire, gateway, pool,
// cloud servers, audit) and its offline noise learning in one process,
// checks the outputs, and prints one JSON result line. See README.md.
//
//	perfbench prepare
//	perfbench --workload edge-lenet --seed 1 --seconds 20 --trace 0
//	perfbench --workload all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	m      *metrics
	meta   *meta
	phases map[string]*tally // warm-up, timed, verification, ...
	failed []string          // output checks that failed
}

func newOutcome(cfg runConfig) *outcome {
	defs := endToEndDefs()
	if cfg.trace {
		defs = perLayerDefs()
	}
	return &outcome{m: newMetrics(defs), meta: newMeta(cfg), phases: map[string]*tally{}}
}

// phase returns the named phase's tally.
func (o *outcome) phase(name string) *tally {
	t, ok := o.phases[name]
	if !ok {
		t = &tally{}
		o.phases[name] = t
	}
	return t
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failed = append(o.failed, fmt.Sprintf(format, args...))
	}
}

// totals sums every phase's tally.
func (o *outcome) totals() tally {
	var t tally
	for _, p := range o.phases {
		t.attempted += p.attempted
		t.failed += p.failed
	}
	return t
}

// workloads maps each workload name to its driver, in run order.
var workloads = []struct {
	name string
	run  func(runConfig) (*outcome, error)
}{
	{"edge-lenet", runEdge},
	{"fleet-cifar-q8", runFleet},
	{"learn-lenet", runLearn},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "prepare" {
		if err := prepare(); err != nil {
			fmt.Fprintln(stderr, "perfbench: prepare:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: edge-lenet, fleet-cifar-q8, learn-lenet, or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == *workload {
			res, code := runOne(w.run, cfg, stdout, stderr)
			if code == 2 {
				return code
			}
			return printResult(stdout, stderr, res, code)
		}
	}
	fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
	return 2
}

// runOne runs a workload and reports it. The code is 0 when every check
// passed, 1 when one failed, and 2 when the run could not complete.
func runOne(fn func(runConfig) (*outcome, error), cfg runConfig, stdout, stderr io.Writer) (result, int) {
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return result{}, 2
	}
	out.m.complete()
	if err := out.m.check(); err != nil {
		out.failed = append(out.failed, err.Error())
	}
	t := out.totals()
	res := result{
		Correct:   len(out.failed) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   out.m.vals,
	}
	report(stdout, out, res)
	if err := writeRecord(out, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: write record: %v\n", err)
	}
	if !res.Correct {
		for _, f := range out.failed {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", cfg.workload, f)
		}
		return res, 1
	}
	return res, 0
}

func printResult(stdout, stderr io.Writer, res result, code int) int {
	line, err := res.encode()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// runAll runs every workload in turn; its last line merges the results
// under "<workload>.<metric>" names.
func runAll(cfg runConfig, stdout, stderr io.Writer) int {
	all := result{Correct: true, Metrics: map[string]value{}}
	code := 0
	for _, w := range workloads {
		c := cfg
		c.workload = w.name
		res, rc := runOne(w.run, c, stdout, stderr)
		if rc == 2 {
			return 2
		}
		if rc != 0 {
			code = rc
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	return printResult(stdout, stderr, all, code)
}

// report prints the human-readable summary: metadata, phase tallies and
// every metric with its unit.
func report(w io.Writer, out *outcome, res result) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%v\n", out.meta.Workload, out.meta.Seed, out.meta.Seconds, out.meta.Trace)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		out.meta.CPUModel, out.meta.NumCPU, out.meta.GOMAXPROCS, out.meta.GoVersion, out.meta.Commit)
	for _, name := range sortedKeys(out.phases) {
		t := out.phases[name]
		fmt.Fprintf(w, "phase %-14s attempted %d, succeeded %d, failed %d\n", name, t.attempted, t.attempted-t.failed, t.failed)
	}
	for _, name := range sortedKeys(out.meta.Samples) {
		fmt.Fprintf(w, "samples %-24s n=%d\n", name, out.meta.Samples[name])
	}
	for _, name := range sortedKeys(out.meta.Notes) {
		fmt.Fprintf(w, "note %s: %s\n", name, out.meta.Notes[name])
	}
	for _, name := range sortedKeys(res.Metrics) {
		v := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, v.Value, v.Unit)
	}
	if len(out.failed) > 0 {
		fmt.Fprintf(w, "FAILED checks: %s\n", strings.Join(out.failed, "; "))
	}
}

// writeRecord stores the metadata and result of the run under buildDir.
func writeRecord(out *outcome, res result) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if out.meta.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", out.meta.Workload, out.meta.Seed, trace)
	b, err := encodeRecord(out.meta, res)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
