package main

// Every workload reports every metric below: the end-to-end set from
// untraced runs (--trace 0) and the per-layer set from traced runs
// (--trace 1). BENCHMARK.json at the repository root declares the same
// names and units; TestDeclaredMetricsMatchBenchmarkJSON keeps them equal.

// Layer names of the two networks the workloads serve. edgeLayers are
// LeNet's local part at cut conv2; cloudLayers are the remote parts of
// LeNet (cut conv2) and CifarNet (cut conv3) together; trainLayers are
// LeNet's layers as the noise trainer drives them (forward through all,
// backward through the remote part only).
var (
	edgeLayers      = []string{"conv0", "relu0", "pool0", "conv1", "relu1", "pool1", "conv2", "relu2"}
	cloudLayers     = []string{"flat", "fc1", "relu3", "relu4", "drop", "fc2"}
	trainLayers     = append(append([]string{}, edgeLayers...), "flat", "fc1", "relu3", "fc2")
	trainBackLayers = []string{"flat", "fc1", "relu3", "fc2"}
)

func endToEndDefs() []metricDef {
	return []metricDef{
		{Name: "setup_s", Unit: "s", Better: "lower"},
		{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
		{Name: "mean_ms", Unit: "ms", Better: "lower"},
		{Name: "p95_ms", Unit: "ms", Better: "lower"},
		{Name: "throughput_per_s", Unit: "1/s", Better: "higher"},
		{Name: "wire_bytes_per_req", Unit: "B", Better: "lower"},
		{Name: "success_rate", Unit: "fraction", Better: "higher"},
		{Name: "accuracy", Unit: "fraction", Better: "higher"},
		{Name: "invivo_privacy", Unit: "1/SNR", Better: "higher"},
		{Name: "mi_loss_pct", Unit: "%", Better: "higher"},
	}
}

func perLayerDefs() []metricDef {
	us := func(name string) metricDef { return metricDef{Name: name, Unit: "us", Better: "lower"} }
	count := func(name, better string) metricDef { return metricDef{Name: name, Unit: "count", Better: better} }
	defs := []metricDef{us("edge.local_us")}
	for _, l := range edgeLayers {
		defs = append(defs, us("edge.layer."+l+"_us"))
	}
	defs = append(defs,
		us("noise.draw_us"), us("noise.apply_us"),
		us("client.quantize_us"), us("client.serialize_us"), us("client.send_us"),
		us("client.wait_us"), us("client.decode_us"), us("client.rtt_us"),
		metricDef{Name: "wire.req_bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "wire.resp_bytes", Unit: "B", Better: "lower"},
		us("gateway.elapsed_us"), us("pool.backend_rtt_us"), us("gateway.self_us"),
		us("server.latency_us"), us("server.compute_us"),
	)
	for _, l := range cloudLayers {
		defs = append(defs, us("cloud.layer."+l+"_us"))
	}
	defs = append(defs, count("audit.records", "higher"), count("audit.batches", "lower"))
	for _, l := range trainLayers {
		defs = append(defs, us("train.layer."+l+".fwd_us"))
	}
	for _, l := range trainBackLayers {
		defs = append(defs, us("train.layer."+l+".bwd_us"))
	}
	defs = append(defs,
		metricDef{Name: "learn.collect_s", Unit: "s", Better: "lower"},
		metricDef{Name: "learn.fit_s", Unit: "s", Better: "lower"},
		metricDef{Name: "learn.evaluate_s", Unit: "s", Better: "lower"},
		metricDef{Name: "learn.mi_s", Unit: "s", Better: "lower"},
		count("go.allocs_per_op", "lower"),
		metricDef{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
		count("go.gc_cycles", "lower"),
		us("gen.lateness_p50_us"), us("gen.lateness_p99_us"),
		count("client.errors", "lower"), count("client.redials", "lower"), count("gateway.errors", "lower"),
		count("server.errors", "lower"), count("pool.reroutes", "lower"),
		metricDef{Name: "trace.overhead_mean_us", Unit: "us", Better: "lower"},
	)
	return defs
}
