package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"shredder/internal/core"
	"shredder/internal/data"
	"shredder/internal/mi"
	"shredder/internal/noisedist"
	"shredder/internal/obs"
	"shredder/internal/privacy"
	"shredder/internal/tensor"
)

// learn-lenet: the paper's offline step. core.Collect trains noise
// members at LeNet's registry hyperparameters (12 epochs each) on a subset
// of the training set, then core.FitCollection and core.Evaluate with MI
// run on the result.
//
// Members train one after another (Collect with one worker). On the
// reference host, two members training at once on its two cores measured
// how much of the second core the host's other tenants left, and
// step times spread by over a quarter between runs of the same code.
// Each member is one measurement window: mean_ms and throughput_per_s are
// medians over the members, and p95_ms is taken over every member's steps.
//
// Its inputs do not depend on --seed: what noise learning produces varies
// with the seed by more than any usable bound (MI loss 47-57% and 1/SNR
// 2.4-2.7 over seeds 1-3), so every run learns from the same subset with
// the same training and evaluation seed, and the quality metrics compare
// like with like. Run-to-run variation is left to the timings.

// learnSubset is how many training images Collect trains on: 44 batches
// an epoch, so each member's 12 epochs give 52 ten-step intervals, and
// four members resolve p95 (at least 200 samples).
const learnSubset = 1400

// learnSeed seeds the subset, the noise training and Evaluate.
const learnSeed = 1

// learnBatch is the noise trainer's default minibatch size, set
// explicitly so a member's training rate can count its samples.
const learnBatch = 32

// learnMembers sizes Collect to --seconds: one member (about 4.6 s on the
// reference host) per 5 s, at least four, so the pooled p95 rests on at
// least 200 ten-step intervals. The count depends only on --seconds,
// never on how fast a run goes.
func learnMembers(seconds float64) int {
	k := int(math.Round(seconds / 5))
	if k < 4 {
		k = 4
	}
	return k
}

type learnEnv struct {
	net   *netEnv
	train *data.Dataset
}

func setupLearn() (*learnEnv, error) {
	n, err := loadLeNet(false)
	if err != nil {
		return nil, err
	}
	idx := rand.New(rand.NewSource(learnSeed)).Perm(n.pre.Train.N())[:learnSubset]
	return &learnEnv{net: n, train: n.pre.Train.Subset(idx)}, nil
}

// collectRun is one timed core.Collect call.
type collectRun struct {
	col     *core.Collection
	elapsed time.Duration
	steps   dist // per-step time over every member, from the training hook's timestamps
	// members has one window per member: its mean step time and its
	// training rate in samples/s, between its first and last hook events.
	members windowSet
	samples float64 // training samples processed (members × epochs × set size)
}

// collect runs core.Collect, one member after another, with a hook recording each member's elapsed
// time at every evaluation point; the interval between two points over
// the iterations between them gives one per-step sample. With tr set,
// each member's run becomes a span under learn.collect.
func (e *learnEnv) collect(members int, tr *tracer) collectRun {
	cfg := noiseConfig(e.net.bench, learnSeed)
	cfg.BatchSize = learnBatch
	type mark struct {
		iter    int
		elapsed time.Duration
		start   time.Time
	}
	var mu sync.Mutex
	first, last := map[string]mark{}, map[string]mark{}
	steps := map[string][]float64{}
	cfg.Hook = func(ev obs.TrainingEvent) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		m, ok := last[ev.Run]
		if ok && ev.Iteration > m.iter {
			steps[ev.Run] = append(steps[ev.Run], float64(ev.Elapsed-m.elapsed)/float64(time.Millisecond)/float64(ev.Iteration-m.iter))
		}
		if !ok {
			m.start = now.Add(-ev.Elapsed)
		}
		last[ev.Run] = mark{iter: ev.Iteration, elapsed: ev.Elapsed, start: m.start}
		if !ok {
			first[ev.Run] = last[ev.Run]
		}
	}
	collectID := tr.reserve()
	t0 := time.Now()
	col := core.Collect(e.net.split, e.train, cfg, members, 1)
	t1 := time.Now()
	tr.finish(collectID, "learn.collect", 0, 1, t0, t1)
	r := collectRun{
		col: col, elapsed: t1.Sub(t0),
		samples: float64(members) * cfg.Epochs * float64(e.train.N()),
	}
	var all []float64
	for _, run := range sortedKeys(last) {
		m, f := last[run], first[run]
		tr.add("learn.member", collectID, 1, m.start, m.start.Add(m.elapsed))
		d := newDistMs(steps[run])
		all = append(all, d.ms...)
		r.members.mean = append(r.members.mean, d.mean())
		r.members.rate = append(r.members.rate, float64((m.iter-f.iter)*learnBatch)/(m.elapsed-f.elapsed).Seconds())
	}
	r.steps = newDistMs(all)
	return r
}

// evaluate fits and evaluates a collection, checking the numbers are
// finite, and records fit and evaluate spans.
func (e *learnEnv) evaluate(col *core.Collection, out *outcome, tr *tracer) (core.EvalResult, time.Duration, time.Duration) {
	kind, err := noisedist.ParseKind("")
	t0 := time.Now()
	var fc *core.FittedCollection
	if err == nil {
		fc, err = core.FitCollection(col, kind)
	}
	t1 := time.Now()
	tr.add("learn.fit", 0, 1, t0, t1)
	out.phase("fit").add(err)
	out.check(err == nil, "learn-lenet: FitCollection: %v", err)
	if fc != nil {
		out.check(isFinite(fc.MeanInVivo()), "learn-lenet: fitted collection in-vivo %v", fc.MeanInVivo())
	}
	ev := core.Evaluate(e.net.split, e.net.pre.Test, col, core.EvalConfig{
		MI:   mi.Options{K: 3, MaxSamples: 256, Seed: learnSeed},
		Seed: learnSeed,
	})
	t2 := time.Now()
	tr.add("learn.evaluate", 0, 1, t1, t2)
	finite := true
	for _, v := range []float64{ev.BaselineAcc, ev.NoisyAcc, ev.OrigMI, ev.ShreddedMI, ev.MILossPct, ev.InVivo} {
		finite = finite && isFinite(v)
	}
	var evErr error
	if !finite || ev.NoisyAcc <= 0 || ev.InVivo <= 0 {
		evErr = fmt.Errorf("Evaluate returned %+v", ev)
	}
	out.phase("evaluate").add(evErr)
	out.check(evErr == nil, "learn-lenet: %v", evErr)
	return ev, t1.Sub(t0), t2.Sub(t1)
}

// checkDeterminism retrains member 0 alone and sequentially; the same
// seed must give the same noise-source encoding as member 0 of the timed,
// timed Collect.
func (e *learnEnv) checkDeterminism(col *core.Collection, out *outcome) string {
	first := &core.Collection{Shape: col.Shape, Members: col.Members[:1], InVivo: col.InVivo[:1]}
	want, _, err := noiseDigest(first)
	var got string
	if err == nil {
		again := core.Collect(e.net.split, e.train, noiseConfig(e.net.bench, learnSeed), 1, 1)
		got, _, err = noiseDigest(again)
	}
	if err == nil && got != want {
		err = fmt.Errorf("member 0 digest %s, retrained %s", want, got)
	}
	out.phase("verification").add(err)
	out.check(err == nil, "learn-lenet: same seed, different noise: %v", err)
	return want
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func runLearn(cfg runConfig) (*outcome, error) {
	out := newOutcome(cfg)
	members := learnMembers(cfg.seconds)
	out.meta.Extra["members"] = float64(members)
	out.meta.Extra["train_subset"] = learnSubset
	if !cfg.trace {
		env, setupS, runs, err := setupTimes(3, setupLearn, func(*learnEnv) {})
		if err != nil {
			return nil, err
		}
		out.meta.SetupRuns = runs
		r := env.collect(members, nil)
		out.phase("timed").attempted += int64(members)
		ev, _, _ := env.evaluate(r.col, out, nil)
		digest := env.checkDeterminism(r.col, out)
		full, size, err := noiseDigest(r.col)
		if err != nil {
			return nil, err
		}
		out.meta.Notes["member0_digest"] = digest
		out.meta.Notes["collection_digest"] = full
		out.meta.Samples["step_latency"] = r.steps.n()
		out.meta.Notes["step_latency"] = r.steps.describe()
		out.m.set("setup_s", setupS)
		out.meta.Samples["step_latency_windows"] = r.members.n()
		out.meta.Notes["member_rates"] = fmt.Sprintf("%.0f samples/s", r.members.rate)
		out.m.set("mean_ms", median(r.members.mean))
		out.m.set("p95_ms", r.steps.quantile(tailQ))
		out.m.set("throughput_per_s", median(r.members.rate))
		out.m.set("wire_bytes_per_req", float64(size)/float64(members))
		out.m.set("accuracy", ev.NoisyAcc)
		out.m.set("invivo_privacy", ev.InVivo)
		out.m.set("mi_loss_pct", ev.MILossPct)
		setCommon(out)
		return out, nil
	}

	env, err := setupLearn()
	if err != nil {
		return nil, err
	}
	mem := readMem()
	base := env.collect(2, nil)
	md := memSince(mem)
	out.phase("baseline").attempted += 2

	tr := newTracer()
	prof := obs.NewProfiler(nil)
	env.net.split.Net.SetProfiler(prof)
	r := env.collect(members, tr)
	env.net.split.Net.SetProfiler(nil)
	out.phase("timed").attempted += int64(members)
	_, fitT, evalT := env.evaluate(r.col, out, tr)
	clean := core.Activations(env.net.split, env.net.pre.Test, nil, 32, tensor.NewRNG(learnSeed))
	t0 := time.Now()
	privacy.MeasureMI(env.net.pre.Test.Images, clean, mi.Options{K: 3, MaxSamples: 256, Seed: learnSeed})
	miT := time.Since(t0)
	tr.add("learn.mi", 0, 1, t0, t0.Add(miT))
	env.checkDeterminism(r.col, out)

	for _, lp := range prof.Table() {
		if name := "train.layer." + lp.Layer + ".fwd_us"; out.m.defs[name].Name != "" {
			out.m.set(name, usMean(lp.ForwardTotal, lp.ForwardCalls))
		}
		if name := "train.layer." + lp.Layer + ".bwd_us"; out.m.defs[name].Name != "" {
			out.m.set(name, usMean(lp.BackwardTotal, lp.BackwardCalls))
		}
	}
	out.meta.Samples["step_latency"] = r.steps.n()
	out.meta.Samples["baseline_step_latency"] = base.steps.n()
	out.meta.Notes["step_latency"] = r.steps.describe()
	out.meta.Notes["baseline_step_latency"] = base.steps.describe()
	out.m.set("learn.collect_s", r.elapsed.Seconds())
	out.m.set("learn.fit_s", fitT.Seconds())
	out.m.set("learn.evaluate_s", evalT.Seconds())
	out.m.set("learn.mi_s", miT.Seconds())
	out.m.set("go.allocs_per_op", float64(md.allocs)/base.samples)
	out.m.set("go.alloc_bytes_per_op", float64(md.bytes)/base.samples)
	out.m.set("go.gc_cycles", float64(md.gcs))
	out.m.set("trace.overhead_mean_us", (r.steps.mean()-base.steps.mean())*1000)
	if err := tr.write(traceFile(cfg)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return out, nil
}
