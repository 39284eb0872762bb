package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/obs"
	"shredder/internal/quantize"
	"shredder/internal/splitrt"
	"shredder/internal/tensor"
)

// fleet-cifar-q8: many independent devices sending to an auditing fleet.
// Set-up noises every CifarNet test image through the real edge path
// (Split.Local plus a stored-noise draw) at cut conv3; the load generator
// receives only those activations and sends them, 8-bit quantized, through
// EdgeClient.InferActivation to a Gateway over a Pool of two audited
// CloudServers. Each EdgeClient keeps one request in flight and the pool
// one per backend, so with fleetConns connections no server-side queue can
// form: waiting happens in the generator's queue, which the open loop
// times from each request's due time. Capacity is measured at saturation,
// with every connection sending back to back.
//
// mean_ms, p95_ms and throughput_per_s come from the saturation windows.
// The reference host stalls for milliseconds at a time, and how often
// varies between runs. An open loop keeps sending through a stall, so
// every request due during it waits, and its tail measures the stalls:
// p95 at the fixed rate ranged from 1.4 to 14 ms between runs of the same
// code. A saturated connection has one request in flight when a stall
// comes, so a stall delays two requests of thousands. The open loop's
// latency from due time is printed with every run, and its generator
// lateness decides whether the run is valid.

const (
	fleetConns    = 2
	fleetBackends = 2
	wireBits      = 8
	// fixedRate is the open loop's offered load, in requests per second:
	// about a fourteenth of capacity on the reference host.
	fixedRate = 250
	// fleetRound is one round of the timed phase: an open-loop window at
	// fixedRate for openShare of it, then a saturation window. Rounds
	// alternate over the whole run, so both see the same host.
	fleetRound = 2 * time.Second
	openShare  = 0.5
	// maxLatenessP50 marks a run invalid: when the generator's median
	// lateness at the fixed rate exceeds it, the load offered was not the
	// load asked for.
	maxLatenessP50 = 1.0 // ms
)

type fleetEnv struct {
	net      *netEnv
	servers  []*splitrt.CloudServer
	auditors []*audit.Auditor
	pool     *splitrt.Pool
	gw       *splitrt.Gateway
	clients  []*splitrt.EdgeClient
	acts     []*tensor.Tensor // pre-noised [1, C, H, W] activations
	labels   []int
	ps       privacyStats // realized privacy of what the cloud receives

	// Traced environments only.
	sreg, preg *obs.Registry
	cregs      []*obs.Registry // one per client: Stats reads its own counters
	ring       *obs.SpanRing
}

func setupFleet(seed int64, traced bool) (*fleetEnv, error) {
	n, err := loadCifar()
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{net: n}
	e.ps = newPrivacyStats(n, n.pre.Test.N())
	// The device population is fixed: every run noises the same images
	// with the same draws, so privacy is measured on the deployed noise,
	// not on a seed's luck. The seed drives arrivals and request order.
	rng := tensor.NewRNG(privacySeed)
	var scratch core.DrawScratch
	test := n.pre.Test
	shape := append([]int{1}, n.split.ActivationShape()...)
	for _, b := range test.Batches(50) {
		batch := n.split.Local(b.Images)
		for j := range b.Labels {
			i := len(e.acts)
			a := batch.Slice(j).Clone().Reshape(shape...)
			e.ps.observe(i, a.Slice(0), core.DrawReusing(n.noise, &scratch, rng))
			rt, err := roundTrip(a)
			if err != nil {
				return nil, err
			}
			e.ps.replaceNoisy(i, rt.Slice(0))
			e.acts = append(e.acts, a)
		}
	}
	e.labels = test.Labels

	var sopts []splitrt.ServerOption
	var popts []splitrt.PoolOption
	if traced {
		e.sreg, e.preg = obs.NewRegistry(), obs.NewRegistry()
		e.ring = obs.NewSpanRing(1 << 16)
		sopts = append(sopts, splitrt.WithObservability(e.sreg, nil))
		popts = append(popts, splitrt.WithPoolMetrics(e.preg))
	}
	var addrs []string
	for i := 0; i < fleetBackends; i++ {
		aud := audit.New(audit.Options{Ledger: audit.NewMemLedger()})
		srv := splitrt.NewCloudServer(n.split, n.cutLayer, append([]splitrt.ServerOption{splitrt.WithAudit(aud)}, sopts...)...)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			aud.Close()
			e.close()
			return nil, err
		}
		e.servers = append(e.servers, srv)
		e.auditors = append(e.auditors, aud)
		addrs = append(addrs, addr)
	}
	if e.pool, err = splitrt.NewPool(n.split, n.cutLayer, nil, seed, addrs, popts...); err != nil {
		e.close()
		return nil, err
	}
	e.gw = splitrt.NewGateway(e.pool)
	gwAddr, err := e.gw.Serve("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < fleetConns; i++ {
		var copts []splitrt.ClientOption
		if traced {
			reg := obs.NewRegistry()
			e.cregs = append(e.cregs, reg)
			copts = append(copts, splitrt.WithMetrics(reg), splitrt.WithSpans(e.ring))
		}
		c, err := splitrt.Dial(gwAddr, n.split, n.cutLayer, nil, seed+int64(10+i), copts...)
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
		if err := c.SetWireQuantization(wireBits); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// roundTrip returns what the cloud reconstructs from a's 8-bit wire
// encoding, computed as EdgeClient and the servers do.
func roundTrip(a *tensor.Tensor) (*tensor.Tensor, error) {
	scheme, err := quantize.Fit(a, wireBits)
	if err != nil {
		return nil, err
	}
	return scheme.DequantizePacked(scheme.QuantizePacked(a), a.Shape()...)
}

func (e *fleetEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	for _, s := range e.servers {
		s.Close() // closes its auditor too
	}
}

// wireBytes sums the clients' sent and received byte counters.
func (e *fleetEnv) wireBytes() (sent, recv int64) {
	for _, c := range e.clients {
		st := c.Stats()
		sent += st.BytesSent
		recv += st.BytesReceived
	}
	return sent, recv
}

// auditSummary sums records and batches over the backends' auditors.
func (e *fleetEnv) auditSummary() (records, batches int64) {
	for _, a := range e.auditors {
		s := a.Summarize()
		records += s.Records
		batches += s.Batches
	}
	return records, batches
}

// fleetStep is one open-loop step at one offered rate.
type fleetStep struct {
	openResult
	hits int
}

// step runs one open-loop step at rate for dur. Request i sends the
// activation order[(*next+i) % len]; with tr set each request is traced.
func (e *fleetEnv) step(ctx context.Context, seed int64, rate float64, dur time.Duration, order []int, next *int, tr *tracer) fleetStep {
	sched := poissonSchedule(seed, rate, dur)
	base := *next
	*next += len(sched)
	preds := make([]int, len(sched))
	r := runOpen(sched, fleetConns, func(w, i int, due time.Time) error {
		k := order[(base+i)%len(order)]
		t0 := time.Now()
		logits, err := e.clients[w].InferActivation(ctx, e.acts[k])
		if tr != nil {
			t1, req, reqID := time.Now(), uint64(base+i+1), tr.reserve()
			tr.add("gen.wait", reqID, req, due, t0)
			rpc := tr.add("rpc", reqID, req, t0, t1)
			tr.noteRPC(e.clients[w].LastTrace(), rpcRef{span: rpc, req: req})
			tr.finish(reqID, "request", 0, req, due, t1)
		}
		if err != nil {
			preds[i] = -1
			return err
		}
		preds[i] = logits.Slice(0).Argmax()
		return nil
	})
	s := fleetStep{openResult: r}
	for i, p := range preds {
		if p == e.labels[order[(base+i)%len(order)]] {
			s.hits++
		}
	}
	return s
}

// saturate keeps every connection busy for dur, each sending its next
// request as soon as its reply arrives, cycling through order from *next.
// EdgeClient keeps one request in flight per connection and the pool one
// per backend, so completions per second at saturation are the fleet's
// capacity: the highest offered rate it can serve without a growing
// backlog.
func (e *fleetEnv) saturate(ctx context.Context, dur time.Duration, order []int, next *int) fleetStep {
	base := *next
	var hits atomic.Int64
	r := runClosed(fleetConns, dur, func(w, i int) error {
		k := order[(base+i)%len(order)]
		logits, err := e.clients[w].InferActivation(ctx, e.acts[k])
		if err != nil {
			return err
		}
		if logits.Slice(0).Argmax() == e.labels[k] {
			hits.Add(1)
		}
		return nil
	})
	*next += r.lat.n()
	return fleetStep{openResult: r, hits: int(hits.Load())}
}

// verify sends every pre-noised activation through the fleet and checks
// each served argmax against in-process Split.RemoteInfer on the
// activation's 8-bit round trip.
func (e *fleetEnv) verify(ctx context.Context, out *outcome) {
	t := out.phase("verification")
	mismatch := 0
	for _, a := range e.acts {
		logits, err := e.clients[0].InferActivation(ctx, a)
		t.add(err)
		if err != nil {
			continue
		}
		rt, err := roundTrip(a)
		if err != nil || logits.Slice(0).Argmax() != e.net.split.RemoteInfer(rt).Slice(0).Argmax() {
			mismatch++
		}
	}
	out.check(mismatch == 0, "fleet-cifar-q8: %d of %d served argmaxes differ from in-process RemoteInfer on the 8-bit round trip", mismatch, len(e.acts))
}

// checkAudit verifies every successful request of the named phases, all
// served by this environment, left one audit record.
func (e *fleetEnv) checkAudit(out *outcome, phases ...string) {
	var ok int64
	for _, p := range phases {
		t := out.phase(p)
		ok += t.attempted - t.failed
	}
	records, _ := e.auditSummary()
	out.check(records == ok, "fleet-cifar-q8: %d audit records for %d served requests", records, ok)
}

func runFleet(cfg runConfig) (*outcome, error) {
	out := newOutcome(cfg)
	ctx := context.Background()
	total := time.Duration(cfg.seconds * float64(time.Second))
	warm := time.Second
	if !cfg.trace {
		env, setupS, runs, err := setupTimes(3, func() (*fleetEnv, error) { return setupFleet(cfg.seed, false) }, (*fleetEnv).close)
		if err != nil {
			return nil, err
		}
		defer env.close()
		out.meta.SetupRuns = runs
		order := rand.New(rand.NewSource(cfg.seed)).Perm(len(env.acts))
		next := 0
		warmup := env.step(ctx, cfg.seed, fixedRate, warm, order, &next, nil)
		addTally(out.phase("warmup"), warmup.tally)
		sat := env.saturate(ctx, warm/2, order, &next)
		addTally(out.phase("warmup"), sat.tally)

		// Rounds of an open-loop window at the fixed rate, then a
		// saturation window.
		rounds := int(math.Max(2, math.Round(total.Seconds()/fleetRound.Seconds())))
		openDur := time.Duration(float64(total) / float64(rounds) * openShare)
		satDur := total/time.Duration(rounds) - openDur
		sent0, _ := env.wireBytes()
		var all, late, satAll []float64
		var open, closed windowSet
		hits, n := 0, 0
		for w := 0; w < rounds; w++ {
			s := env.step(ctx, cfg.seed+int64(1+w), fixedRate, openDur, order, &next, nil)
			addTally(out.phase("timed"), s.tally)
			all, late = append(all, s.lat.ms...), append(late, s.late.ms...)
			open.add(s.lat, s.elapsed)
			c := env.saturate(ctx, satDur, order, &next)
			addTally(out.phase("saturation"), c.tally)
			closed.add(c.lat, c.elapsed)
			satAll = append(satAll, c.lat.ms...)
			hits += s.hits + c.hits
			n += s.lat.n() + c.lat.n()
			out.meta.Notes[fmt.Sprintf("round_%02d", w)] = fmt.Sprintf("open %s; saturated %.0f req/s",
				s.lat.describe(), closed.rate[w])
		}
		sent1, _ := env.wireBytes()
		lat, lateness := newDistMs(all), newDistMs(late)
		env.verify(ctx, out)
		env.checkAudit(out, "warmup", "timed", "saturation", "verification")

		out.meta.Samples["open_latency"] = lat.n()
		out.meta.Samples["open_latency_windows"] = open.n()
		out.meta.Samples["latency"] = len(satAll)
		out.meta.Samples["latency_windows"] = closed.n()
		out.meta.Samples["lateness"] = lateness.n()
		out.meta.Notes["open_latency"] = fmt.Sprintf("%s; window medians: mean %.4f ms, p95 %.4f ms",
			lat.describe(), median(open.mean), median(open.tail))
		out.meta.Notes["latency"] = newDistMs(satAll).describe()
		out.meta.Notes["lateness"] = lateness.describe()
		out.check(lateness.quantile(0.5) <= maxLatenessP50,
			"fleet-cifar-q8: invalid run: generator lateness p50 %.3f ms exceeds %.1f ms", lateness.quantile(0.5), maxLatenessP50)
		out.m.set("setup_s", setupS)
		out.m.set("mean_ms", median(closed.mean))
		out.m.set("p95_ms", median(closed.tail))
		out.m.set("throughput_per_s", median(closed.rate))
		out.m.set("wire_bytes_per_req", float64(sent1-sent0)/float64(n))
		out.m.set("accuracy", float64(hits)/float64(n))
		env.ps.report(out)
		setCommon(out)
		return out, nil
	}

	// Traced run: an untraced fixed-rate phase for the baseline mean,
	// generator lateness and allocator counts, then a traced fixed-rate
	// phase in a fresh traced environment.
	base, err := setupFleet(cfg.seed, false)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(base.acts))
	next := 0
	w := base.step(ctx, cfg.seed, fixedRate, warm, order, &next, nil)
	addTally(out.phase("baseline.warmup"), w.tally)
	mem := readMem()
	b := base.step(ctx, cfg.seed+1, fixedRate, total/2, order, &next, nil)
	md := memSince(mem)
	addTally(out.phase("baseline"), b.tally)
	base.checkAudit(out, "baseline.warmup", "baseline")
	base.close()

	env, err := setupFleet(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	next = 0
	w = env.step(ctx, cfg.seed, fixedRate, warm, order, &next, nil)
	addTally(out.phase("warmup"), w.tally)
	tr := newTracer()
	prof := obs.NewProfiler(nil)
	regs := append([]*obs.Registry{env.sreg, env.preg}, env.cregs...)
	snap := snapshotRegs(regs...)
	sent0, recv0 := env.wireBytes()
	rec0, bat0 := env.auditSummary()
	env.net.split.Net.SetProfiler(prof)
	r := env.step(ctx, cfg.seed+1, fixedRate, total/2, order, &next, tr)
	env.net.split.Net.SetProfiler(nil)
	sent1, recv1 := env.wireBytes()
	rec1, bat1 := env.auditSummary()
	delta := snapshotRegs(regs...).since(snap)
	addTally(out.phase("timed"), r.tally)
	ring := env.ring.Snapshot()
	tr.attachClientStages(ring)
	env.verify(ctx, out)
	env.checkAudit(out, "warmup", "timed", "verification")

	n := int64(r.lat.n())
	out.meta.Samples["latency"] = r.lat.n()
	out.meta.Samples["baseline_latency"] = b.lat.n()
	out.meta.Notes["latency"] = r.lat.describe()
	out.meta.Notes["baseline_latency"] = b.lat.describe()
	setClientLayers(out, tr.totals(), delta, ring, sent1-sent0, recv1-recv0, n, true)
	setServerLayers(out, delta)
	setProfileLayers(out, prof, env.net)
	out.m.set("audit.records", float64(rec1-rec0))
	out.m.set("audit.batches", float64(bat1-bat0))
	out.m.set("go.allocs_per_op", float64(md.allocs)/float64(b.lat.n()))
	out.m.set("go.alloc_bytes_per_op", float64(md.bytes)/float64(b.lat.n()))
	out.m.set("go.gc_cycles", float64(md.gcs))
	out.m.set("gen.lateness_p50_us", b.late.quantile(0.5)*1000)
	out.m.set("gen.lateness_p99_us", b.late.quantile(0.99)*1000)
	out.m.set("trace.overhead_mean_us", (r.lat.mean()-b.lat.mean())*1000)
	if err := tr.write(traceFile(cfg)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return out, nil
}

func addTally(dst *tally, t tally) {
	dst.attempted += t.attempted
	dst.failed += t.failed
}
