package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"shredder/internal/core"
	"shredder/internal/mi"
	"shredder/internal/obs"
	"shredder/internal/privacy"
	"shredder/internal/tensor"
)

// regSnap is the merged state of several metric registries: counters and
// histogram (sum, count) pairs, summed across registries by name.
type regSnap struct {
	counters map[string]int64
	sums     map[string]float64
	counts   map[string]int64
}

func snapshotRegs(regs ...*obs.Registry) regSnap {
	s := regSnap{counters: map[string]int64{}, sums: map[string]float64{}, counts: map[string]int64{}}
	for _, r := range regs {
		snap := r.Snapshot()
		for k, v := range snap.Counters {
			s.counters[k] += v
		}
		for k, h := range snap.Histograms {
			s.sums[k] += h.Sum
			s.counts[k] += h.Count
		}
	}
	return s
}

// since returns the change from prev to s.
func (s regSnap) since(prev regSnap) regSnap {
	d := regSnap{counters: map[string]int64{}, sums: map[string]float64{}, counts: map[string]int64{}}
	for k, v := range s.counters {
		d.counters[k] = v - prev.counters[k]
	}
	for k, v := range s.sums {
		d.sums[k] = v - prev.sums[k]
		d.counts[k] = s.counts[k] - prev.counts[k]
	}
	return d
}

// counterPrefix sums every counter whose name has the prefix.
func (s regSnap) counterPrefix(prefix string) int64 {
	var n int64
	for k, v := range s.counters {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// histMeanUs returns the mean, in microseconds, of every seconds-valued
// histogram whose name has the prefix and suffix, pooled.
func (s regSnap) histMeanUs(prefix, suffix string) float64 {
	var sum float64
	var n int64
	for k, v := range s.sums {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			sum += v
			n += s.counts[k]
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1e6
}

// spanTotals is the summed duration and count of spans per name.
type spanTotals map[string]struct {
	dur time.Duration
	n   int64
}

func (t *tracer) totals() spanTotals {
	out := spanTotals{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		v := out[s.Name]
		v.dur += time.Duration(s.End - s.Start)
		v.n++
		out[s.Name] = v
	}
	return out
}

// us returns the mean duration of the named spans in microseconds.
func (t spanTotals) us(name string) float64 {
	v := t[name]
	return usMean(v.dur, v.n)
}

// setClientLayers reports the client-side layer: stage spans, round trip,
// bytes per request and the client's error and redial counts. For a
// gateway first hop the client span's server_elapsed_ns is the gateway's
// handling time, which the pool's backend round trip splits into relay
// and self time.
func setClientLayers(out *outcome, tot spanTotals, d regSnap, ring []obs.Span, sent, received, n int64, viaGateway bool) {
	for _, st := range []string{"quantize", "serialize", "send", "wait", "decode"} {
		out.m.set("client."+st+"_us", tot.us("client."+st))
	}
	out.m.set("client.rtt_us", tot.us("rpc"))
	if n > 0 {
		out.m.set("wire.req_bytes", float64(sent)/float64(n))
		out.m.set("wire.resp_bytes", float64(received)/float64(n))
	}
	out.m.set("client.errors", float64(d.counterPrefix("client.errors.")))
	out.m.set("client.redials", float64(d.counters["client.redials"]))
	if !viaGateway {
		return
	}
	var elapsed time.Duration
	var k int64
	for _, s := range ring {
		if v, ok := s.Attrs["server_elapsed_ns"]; ok {
			elapsed += time.Duration(v)
			k++
		}
	}
	gw := usMean(elapsed, k)
	backend := d.histMeanUs("pool.backend.", ".rtt_seconds")
	out.m.set("gateway.elapsed_us", gw)
	out.m.set("pool.backend_rtt_us", backend)
	out.m.set("gateway.self_us", gw-backend)
	out.m.set("gateway.errors", float64(d.counters["gateway.errors"]))
	out.m.set("pool.reroutes", float64(d.counters["pool.reroutes"]))
}

// setServerLayers reports the cloud servers' own latency, compute time
// and errors from their shared registry.
func setServerLayers(out *outcome, d regSnap) {
	out.m.set("server.latency_us", d.histMeanUs("server.latency_seconds", ""))
	out.m.set("server.compute_us", d.histMeanUs("server.compute_seconds", ""))
	out.m.set("server.errors", float64(d.counterPrefix("server.errors.")))
}

// setProfileLayers reports the per-layer profiler's mean forward time per
// call, split at the cut into edge and cloud layers.
func setProfileLayers(out *outcome, prof *obs.Profiler, n *netEnv) {
	for _, lp := range prof.Table() {
		side := "cloud"
		if idx := n.split.Net.Index(lp.Layer); idx >= 0 && idx <= n.split.CutIndex {
			side = "edge"
		}
		name := side + ".layer." + lp.Layer + "_us"
		if _, ok := out.m.defs[name]; ok {
			out.m.set(name, usMean(lp.ForwardTotal, lp.ForwardCalls))
		}
	}
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg runConfig) string {
	return filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

// privacyStats measures the realized privacy of what a run put on the
// wire: 1/SNR over every noised activation and the mutual information
// lost between inputs and the sent activations.
type privacyStats struct {
	inputs, clean, noisy *tensor.Tensor
	varN, ea2            float64
}

func newPrivacyStats(n *netEnv, count int) privacyStats {
	return privacyStats{
		inputs: n.pre.Test.Images,
		clean:  tensor.New(append([]int{count}, n.split.ActivationShape()...)...),
		noisy:  tensor.New(append([]int{count}, n.split.ActivationShape()...)...),
	}
}

// observe records sample i's clean activation a, applies the draw to it
// in place, and records the noised result.
func (p *privacyStats) observe(i int, a *tensor.Tensor, d core.Draw) {
	p.clean.Slice(i).CopyFrom(a)
	p.ea2 += a.SqSum() / float64(a.Len())
	d.ApplyInPlace(a)
	p.noisy.Slice(i).CopyFrom(a)
	p.varN += d.Noise.Variance()
}

// replaceNoisy overwrites sample i's sent activation (e.g. after a
// quantization round trip).
func (p *privacyStats) replaceNoisy(i int, a *tensor.Tensor) { p.noisy.Slice(i).CopyFrom(a) }

// privacySeed seeds the noise draws and MI subsample of the serving
// workloads' privacy measurement.
const privacySeed = 1

// report sets invivo_privacy and mi_loss_pct, estimating MI as
// core.Evaluate does (k=3, 256 samples).
func (p *privacyStats) report(out *outcome) {
	opts := mi.Options{K: 3, MaxSamples: 256, Seed: privacySeed}
	orig := privacy.MeasureMI(p.inputs, p.clean, opts)
	opts.Seed++
	shredded := privacy.MeasureMI(p.inputs, p.noisy, opts)
	_, frac := privacy.InformationLoss(orig, shredded)
	out.m.set("invivo_privacy", p.varN/p.ea2)
	out.m.set("mi_loss_pct", 100*frac)
	out.meta.Extra["mi_original_bits"] = orig
	out.meta.Extra["mi_shredded_bits"] = shredded
}
