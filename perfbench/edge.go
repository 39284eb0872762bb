package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"shredder/internal/core"
	"shredder/internal/obs"
	"shredder/internal/splitrt"
	"shredder/internal/tensor"
)

// edge-lenet: one device's private inference. A closed loop with one
// client calls EdgeClient.InferContext on LeNet test images cut at conv2,
// with the stored noise collection, dense float64 wire and a
// default-option CloudServer.

const warmupRequests = 200

// edgeWindow is one measurement window of the timed phase; mean_ms, p95_ms
// and throughput_per_s are medians over the windows (about 1000 requests
// each on the reference host).
const edgeWindow = 500 * time.Millisecond

type edgeEnv struct {
	net    *netEnv
	srv    *splitrt.CloudServer
	client *splitrt.EdgeClient
	inputs []*tensor.Tensor // [1, C, H, W] views of the test images
	labels []int

	// Traced environments only.
	sreg, creg *obs.Registry
	ring       *obs.SpanRing
	rng        *tensor.RNG
	scratch    core.DrawScratch
}

func setupEdge(seed int64, traced bool) (*edgeEnv, error) {
	n, err := loadLeNet(true)
	if err != nil {
		return nil, err
	}
	e := &edgeEnv{net: n}
	var sopts []splitrt.ServerOption
	var copts []splitrt.ClientOption
	if traced {
		e.sreg, e.creg = obs.NewRegistry(), obs.NewRegistry()
		e.ring = obs.NewSpanRing(1 << 16)
		e.rng = tensor.NewRNG(seed + 1)
		sopts = append(sopts, splitrt.WithObservability(e.sreg, nil))
		copts = append(copts, splitrt.WithMetrics(e.creg), splitrt.WithSpans(e.ring))
	}
	e.srv = splitrt.NewCloudServer(n.split, n.cutLayer, sopts...)
	addr, err := e.srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.client, err = splitrt.Dial(addr, n.split, n.cutLayer, n.noise, seed, copts...)
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	e.inputs, e.labels = batchesOf(n)
	return e, nil
}

// batchesOf returns every test image as a single-sample batch view.
func batchesOf(n *netEnv) ([]*tensor.Tensor, []int) {
	test := n.pre.Test
	shape := append([]int{1}, test.SampleShape()...)
	inputs := make([]*tensor.Tensor, test.N())
	for i := range inputs {
		inputs[i] = test.Image(i).Reshape(shape...)
	}
	return inputs, test.Labels
}

func (e *edgeEnv) close() {
	e.client.Close()
	e.srv.Close()
}

// edgeLoop is one closed-loop phase's measurements.
type edgeLoop struct {
	lat        []time.Duration
	hits       int
	sent, recv int64 // wire bytes
	elapsed    time.Duration
}

// loop sends requests back to back, cycling through order from *next,
// until dur has passed or max requests were sent (max > 0). With tr set
// it sends each request through the decomposed, traced path.
func (e *edgeEnv) loop(ctx context.Context, order []int, next *int, dur time.Duration, max int, t *tally, tr *tracer) edgeLoop {
	var r edgeLoop
	st0 := e.client.Stats()
	start := time.Now()
	for (max == 0 || len(r.lat) < max) && (dur == 0 || time.Since(start) < dur) {
		k := order[*next%len(order)]
		*next++
		t0 := time.Now()
		var pred int
		var err error
		if tr == nil {
			var logits *tensor.Tensor
			logits, err = e.client.InferContext(ctx, e.inputs[k])
			if err == nil {
				pred = logits.Slice(0).Argmax()
			}
		} else {
			pred, err = e.tracedInfer(ctx, e.inputs[k], uint64(len(r.lat)+1), tr)
		}
		r.lat = append(r.lat, time.Since(t0))
		t.add(err)
		if err == nil && pred == e.labels[k] {
			r.hits++
		}
	}
	r.elapsed = time.Since(start)
	st := e.client.Stats()
	r.sent, r.recv = st.BytesSent-st0.BytesSent, st.BytesReceived-st0.BytesReceived
	return r
}

// tracedInfer is InferContext decomposed at its layer boundaries —
// Split.Local, DrawReusing, ApplyInPlace, InferActivation — with a span
// around each. Unlike InferContext it attaches no audit note.
func (e *edgeEnv) tracedInfer(ctx context.Context, x *tensor.Tensor, req uint64, tr *tracer) (int, error) {
	reqID := tr.reserve()
	t0 := time.Now()
	a := e.net.split.Local(x)
	t1 := time.Now()
	tr.add("edge.local", reqID, req, t0, t1)
	d := core.DrawReusing(e.net.noise, &e.scratch, e.rng)
	t2 := time.Now()
	tr.add("noise.draw", reqID, req, t1, t2)
	d.ApplyInPlace(a.Slice(0))
	t3 := time.Now()
	tr.add("noise.apply", reqID, req, t2, t3)
	logits, err := e.client.InferActivation(ctx, a)
	t4 := time.Now()
	rpc := tr.add("rpc", reqID, req, t3, t4)
	tr.noteRPC(e.client.LastTrace(), rpcRef{span: rpc, req: req})
	tr.finish(reqID, "request", 0, req, t0, t4)
	if err != nil {
		return 0, err
	}
	return logits.Slice(0).Argmax(), nil
}

// verify sends every test image through Local, a noise draw and
// InferActivation, checks each served argmax against in-process
// Split.RemoteInfer on the same noised activation, and measures the
// realized privacy of what was sent. Its draws come from a fixed seed, so
// privacy is measured on the deployed noise, not on a seed's luck.
func (e *edgeEnv) verify(ctx context.Context, out *outcome) privacyStats {
	rng := tensor.NewRNG(privacySeed)
	var scratch core.DrawScratch
	ps := newPrivacyStats(e.net, len(e.inputs))
	t := out.phase("verification")
	mismatch := 0
	for i, x := range e.inputs {
		a := e.net.split.Local(x)
		d := core.DrawReusing(e.net.noise, &scratch, rng)
		ps.observe(i, a.Slice(0), d)
		logits, err := e.client.InferActivation(ctx, a)
		t.add(err)
		if err != nil {
			continue
		}
		if logits.Slice(0).Argmax() != e.net.split.RemoteInfer(a).Slice(0).Argmax() {
			mismatch++
		}
	}
	out.check(mismatch == 0, "edge-lenet: %d of %d served argmaxes differ from in-process RemoteInfer", mismatch, len(e.inputs))
	return ps
}

func runEdge(cfg runConfig) (*outcome, error) {
	out := newOutcome(cfg)
	ctx := context.Background()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		env, setupS, runs, err := setupTimes(3, func() (*edgeEnv, error) { return setupEdge(cfg.seed, false) }, (*edgeEnv).close)
		if err != nil {
			return nil, err
		}
		defer env.close()
		order := rand.New(rand.NewSource(cfg.seed)).Perm(len(env.inputs))
		out.meta.SetupRuns = runs
		next := 0
		env.loop(ctx, order, &next, 0, warmupRequests, out.phase("warmup"), nil)
		var wins windowSet
		var all []time.Duration
		var hits int
		var sent int64
		for start := time.Now(); time.Since(start) < dur; {
			r := env.loop(ctx, order, &next, edgeWindow, 0, out.phase("timed"), nil)
			wins.add(newDist(r.lat), r.elapsed)
			all = append(all, r.lat...)
			hits += r.hits
			sent += r.sent
		}
		ps := env.verify(ctx, out)
		lat := newDist(all)
		n := float64(lat.n())
		out.meta.Samples["latency"] = lat.n()
		out.meta.Samples["latency_windows"] = wins.n()
		out.meta.Notes["latency"] = lat.describe()
		out.meta.Notes["window_means"] = fmt.Sprintf("%.3f ms", wins.mean)
		out.m.set("setup_s", setupS)
		out.m.set("mean_ms", median(wins.mean))
		out.m.set("p95_ms", median(wins.tail))
		out.m.set("throughput_per_s", median(wins.rate))
		out.m.set("wire_bytes_per_req", float64(sent)/n)
		out.m.set("accuracy", float64(hits)/n)
		ps.report(out)
		setCommon(out)
		return out, nil
	}

	// Traced run: an untraced phase for the baseline mean and allocator
	// counts, then the traced phase in a fresh traced environment.
	base, err := setupEdge(cfg.seed, false)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(base.inputs))
	next := 0
	base.loop(ctx, order, &next, 0, warmupRequests, out.phase("baseline.warmup"), nil)
	mem := readMem()
	br := base.loop(ctx, order, &next, dur/2, 0, out.phase("baseline"), nil)
	md := memSince(mem)
	base.close()
	baseLat := newDist(br.lat)

	env, err := setupEdge(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	next = 0
	env.loop(ctx, order, &next, 0, warmupRequests, out.phase("warmup"), nil)
	tr := newTracer()
	prof := obs.NewProfiler(nil)
	snap := snapshotRegs(env.sreg, env.creg)
	env.net.split.Net.SetProfiler(prof)
	r := env.loop(ctx, order, &next, dur/2, 0, out.phase("timed"), tr)
	env.net.split.Net.SetProfiler(nil)
	delta := snapshotRegs(env.sreg, env.creg).since(snap)
	tr.attachClientStages(env.ring.Snapshot())
	env.verify(ctx, out)

	lat := newDist(r.lat)
	n := int64(len(r.lat))
	out.meta.Samples["latency"] = lat.n()
	out.meta.Samples["baseline_latency"] = baseLat.n()
	out.meta.Notes["latency"] = lat.describe()
	out.meta.Notes["baseline_latency"] = baseLat.describe()
	tot := tr.totals()
	out.m.set("edge.local_us", tot.us("edge.local"))
	out.m.set("noise.draw_us", tot.us("noise.draw"))
	out.m.set("noise.apply_us", tot.us("noise.apply"))
	setClientLayers(out, tot, delta, env.ring.Snapshot(), r.sent, r.recv, n, false)
	setServerLayers(out, delta)
	setProfileLayers(out, prof, env.net)
	out.m.set("go.allocs_per_op", float64(md.allocs)/float64(len(br.lat)))
	out.m.set("go.alloc_bytes_per_op", float64(md.bytes)/float64(len(br.lat)))
	out.m.set("go.gc_cycles", float64(md.gcs))
	out.m.set("trace.overhead_mean_us", (lat.mean()-baseLat.mean())*1000)
	if err := tr.write(traceFile(cfg)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return out, nil
}

// setCommon sets the metrics every untraced run reports the same way.
func setCommon(out *outcome) {
	t := out.totals()
	if t.attempted > 0 {
		out.m.set("success_rate", float64(t.attempted-t.failed)/float64(t.attempted))
	}
	runtime.GC()
	out.m.set("peak_rss_mb", peakRSSMiB())
}
