package main

import (
	"fmt"
	"strings"
)

// perLayer lists the metrics every traced run prints. A layer that a
// workload does not exercise reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"client.self_p50_us", "us"},
	{"cluster.router_p50_us", "us"},
	{"cluster.router_p99_us", "us"},
	{"cluster.router_self_p50_us", "us"},
	{"cluster.retries", "count"},
	{"cluster.sheds", "count"},
	{"serve.backend_p50_us", "us"},
	{"serve.backend_p99_us", "us"},
	{"serve.codec_self_p50_us", "us"},
	{"serve.decide_p50_us", "us"},
	{"serve.decide_p99_us", "us"},
	{"serve.sheds", "count"},
	{"serve.steps", "count"},
	{"il.train_swaps", "count"},
	{"il.train_samples", "count"},
	{"il.train_drop_pct", "%"},
	{"il.mlp_train_s", "s"},
	{"il.tree_train_s", "s"},
	{"oracle.label_s", "s"},
	{"oracle.ns_per_config", "ns"},
	{"experiments.study_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.fig2_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.cpu_util_pct", "%"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.disk_hits", "count"},
	{"memo.disk_writes", "count"},
	{"memo.disk_errors", "count"},
	{"memo.bytes", "B"},
	{"memo.warm_study_ms", "ms"},
	{"workload.gen_ms", "ms"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_p90_ms", "ms"},
}

// completeLayers sets every per-layer metric the workload left unset to 0,
// naming them: those layers do no work in this workload's measured window.
func completeLayers(rep *report) {
	var idle []string
	for _, m := range perLayer {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
			idle = append(idle, m.name)
		}
	}
	if len(idle) > 0 {
		rep.note("not on this workload's path (0): %s", strings.Join(idle, " "))
	}
}

// servingLayers derives the serving tier's per-layer metrics from the
// traced half's spans and the tier's own metric series. Spans pair as
// client > router > backend by request id and time containment; a
// backend's codec self time is its span minus its decides, each costed at
// the run's mean decide time (Server.DecideLatency sum / count).
func servingLayers(rep *report, env *clusterEnv, tr *tracer) {
	nRouter := tr.pairContained("client", "router")
	nBackend := tr.pairContained("router", "backend")
	rep.note("spans: %d client, %d router (%d paired), %d backend (%d paired)",
		len(tr.byName("client")), len(tr.byName("router")), nRouter, len(tr.byName("backend")), nBackend)
	c := env.counters()
	meanDecideMS := 0.0
	if c.decideCount > 0 {
		meanDecideMS = 1e3 * c.decideSum / c.decideCount
	}
	var codec []float64
	for _, s := range tr.byName("backend") {
		codec = append(codec, ms(s.dur())-float64(s.Items)*meanDecideMS)
	}
	router := tr.durationsMS("router")
	backend := tr.durationsMS("backend")
	rep.set("client.self_p50_us", 1e3*median(tr.selfTimesMS("client", "router")), "us")
	rep.set("cluster.router_p50_us", 1e3*median(router), "us")
	rep.set("cluster.router_p99_us", 1e3*percentile(router, 0.99), "us")
	rep.set("cluster.router_self_p50_us", 1e3*median(tr.selfTimesMS("router", "backend")), "us")
	rep.set("serve.backend_p50_us", 1e3*median(backend), "us")
	rep.set("serve.backend_p99_us", 1e3*percentile(backend, 0.99), "us")
	rep.set("serve.codec_self_p50_us", 1e3*median(codec), "us")
	rep.set("serve.decide_p50_us", 1e6*c.decideP50, "us")
	rep.set("serve.decide_p99_us", 1e6*c.decideP99, "us")
	rep.set("cluster.retries", c.routerRetries, "count")
	rep.set("cluster.sheds", c.routerSheds, "count")
	rep.set("serve.sheds", c.serveSheds, "count")
	rep.set("serve.steps", c.steps, "count")
	rep.note("mean decide %.2f us over %.0f decides", 1e3*meanDecideMS, c.decideCount)
}

// trainLayers reports the background trainers' series.
func trainLayers(rep *report, c servingCounters) {
	rep.set("il.train_swaps", c.trainSwaps, "count")
	rep.set("il.train_samples", c.trainSamples, "count")
	drop := 0.0
	if in := c.trainSamples + c.trainDropped; in > 0 {
		drop = 100 * c.trainDropped / in
	}
	rep.set("il.train_drop_pct", drop, "%")
}

// traceOverhead reports traced minus untraced operation times (ms) from
// the same run.
func traceOverhead(rep *report, untraced, traced []float64) {
	rep.set("trace.overhead_p50_ms", median(traced)-median(untraced), "ms")
	rep.set("trace.overhead_p90_ms", percentile(traced, 0.9)-percentile(untraced, 0.9), "ms")
}

// writeSpans stores the traced half's spans under the spans directory.
func writeSpans(rep *report, tr *tracer, cfg runConfig, workload string) error {
	path, err := tr.write(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
	if err != nil {
		return err
	}
	rep.note("%d spans written to %s", len(tr.spans), path)
	return nil
}
