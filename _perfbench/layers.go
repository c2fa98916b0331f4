package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"keyedeq/internal/obs"
)

// durs returns the durations, in µs, of the spans keep accepts.
func durs(spans []span, keep func(*span) bool) []float64 {
	var out []float64
	for i := range spans {
		if keep(&spans[i]) {
			out = append(out, float64(spans[i].Dur)/1e3)
		}
	}
	return out
}

// named accepts spans of one name, and of one family unless family is "".
func named(name, family string) func(*span) bool {
	return func(sp *span) bool { return sp.Name == name && (family == "" || sp.Family == family) }
}

// setMedian sets a metric to the median of xs, scaled, with its sample
// count.
func (r *result) setMedian(name string, xs []float64, scale float64) {
	r.setN(name, median(xs)*scale, len(xs))
}

// programLayers sets the metrics read from the program's own stage
// spans, the benchmark's per-call spans and a registry's totals: the
// cq, engine-canonicalization and chase groups.
func programLayers(res *result, spans []span, reg map[string]int64) {
	var parseNs, parseBytes float64
	for i := range spans {
		if sp := &spans[i]; sp.Name == "cq.Parse" {
			parseNs += float64(sp.Dur)
			parseBytes += float64(sp.Attrs["bytes"])
		}
	}
	for _, f := range families {
		res.setMedian("cq.parse_us."+f, durs(spans, named("cq.Parse", f)), 1)
		res.setMedian("engine.canonicalize_us."+f, durs(spans, named(obs.StageCanonicalize, f)), 1)
	}
	res.set("cq.parse_ns_per_byte", ratio(parseNs, parseBytes))
	res.setMedian("cq.plan_us", durs(spans, named(obs.StagePlan, "")), 1)
	res.setMedian("cq.search_us", durs(spans, named(obs.StageSearch, "")), 1)
	res.setMedian("chase.freeze_chase_us", durs(spans, named(obs.StageFreezeChase, "")), 1)

	pairs := float64(reg["keyedeq_pairs_total"])
	searches := float64(reg["keyedeq_searches_total"])
	runs := float64(reg["keyedeq_chase_runs_total"])
	res.set("cq.search_nodes_per_search", ratio(float64(reg["keyedeq_search_nodes_total"]), searches))
	res.set("cq.searches_per_pair", ratio(searches, pairs))
	res.set("engine.canonicalizations_per_pair", ratio(float64(reg["keyedeq_canonicalizations_total"]), pairs))
	res.set("chase.runs_per_pair", ratio(runs, pairs))
	res.set("chase.iterations_per_run", ratio(float64(reg["keyedeq_chase_iterations_total"]), runs))
}

// markIdle reports metrics of layers a workload does not use as 0.
func (r *result) markIdle(names ...string) {
	for _, n := range names {
		r.values[n] = 0
		r.idle[n] = true
	}
}

// finishTrace computes self times, writes the trace file and prints
// the per-name self-time summary.
func finishTrace(cfg config, tr *tracer) ([]span, error) {
	spans := tr.finish()
	path := filepath.Join(filepath.Dir(filepath.Dir(cfg.dir)), "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeTrace(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stdout, "perfbench: trace: %d spans written to %s\n", len(spans), path)
	printSelfTimes(os.Stdout, spans)
	return spans, nil
}

// traceServe is a serve workload's traced replay.  The first n requests
// of the timed phase go again through a freshly set-up server, with a
// root span around each ServeHTTP; then the same requests replay on the
// mirror, whose spans join each request's trace.
func traceServe(cfg config, spec serveSpec, res *result, n int, untracedPPS float64) error {
	tr := newTracer()
	srv, _, err := spec.setup(tr)
	if err != nil {
		return err
	}
	rootID := make([]int64, n)
	rootDur := make([]int64, n)
	pm := mark(srv.reg)
	t := serveLoad(srv.srv.Handler(), spec.pool, spec.seq, 0, n, time.Time{}, func(i int, q *request, start time.Time, d time.Duration) {
		rootID[i] = tr.add(span{Trace: int64(i + 1), Name: "ServeHTTP", Phase: "timed", Family: q.family,
			Start: tr.at(start), Dur: d.Nanoseconds()})
		rootDur[i] = d.Nanoseconds()
	})
	d := pm.delta(srv.reg)
	evictions, err := cacheEvictions(srv.srv.Handler())
	if err != nil {
		return err
	}
	if err := srv.close(); err != nil {
		return err
	}
	res.problems = append(res.problems, t.problems("traced replay")...)
	pc := d.pairCounts()
	res.problems = append(res.problems, reconcile("traced replay", int64(t.decided), pc)...)
	res.set("obs.trace_overhead_pct", 100*ratio(untracedPPS-float64(n)/t.wall.Seconds(), untracedPPS))
	res.set("engine.cache_hit_share", ratio(float64(pc.hits), float64(pc.pairs)))
	res.set("engine.cache_evictions", float64(evictions))
	rejected := float64(d.reg["keyedeq_serve_rejected_total"])
	res.set("serve.rejected_share", ratio(rejected, rejected+float64(d.reg["keyedeq_serve_requests_total"])))
	res.setN("serve.latency_p99_ms", percentile(t.lat, 0.99), len(t.lat))
	res.set("serve.latency_samples", float64(len(t.lat)))

	m, err := spec.mirrorSetup(tr)
	if err != nil {
		return err
	}
	logSize0, appends0 := fileSize(m.lt.log.Path()), m.lt.appends
	out, mt, err := mirrorLoad(m, spec.pool, spec.seq, n, "timed", func(i int) (int64, int64) { return int64(i + 1), rootID[i] })
	if err != nil {
		m.close()
		return err
	}
	logGrowth, appends := fileSize(m.lt.log.Path())-logSize0, m.lt.appends-appends0
	if err := m.close(); err != nil {
		return err
	}
	res.problems = append(res.problems, mt.problems("mirror replay")...)
	reg := m.reg.Snapshot()
	mc := counts{
		pairs:    reg["keyedeq_pairs_total"],
		hits:     reg["keyedeq_cache_hits_total"],
		computed: reg["keyedeq_pairs_computed_total"],
		deduped:  reg["keyedeq_pairs_deduped_total"],
		errors:   reg["keyedeq_pairs_errors_total"],
	}
	res.problems = append(res.problems, reconcile("mirror", m.decisions.Load(), mc)...)
	if cs := m.cacheStats(); cs.Hits != mc.hits {
		res.fail("mirror: Engine.CacheStats counts %d hits, registry %d", cs.Hits, mc.hits)
	}

	spans, err := finishTrace(cfg, tr)
	if err != nil {
		return err
	}
	overhead := make([]float64, 0, n)
	route := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		overhead = append(overhead, float64(rootDur[i]-out[i].decide)/1e3)
		route = append(route, float64(out[i].route)/1e3)
	}
	res.setMedian("serve.overhead_us", overhead, 1)
	res.setMedian("serve.route_us", route, 1)
	programLayers(res, spans, reg)

	// Cache probe: a hit's Decide minus its two canonicalizations.
	canon := make(map[int64]int64)
	for i := range spans {
		if sp := &spans[i]; sp.Name == obs.StageCanonicalize {
			canon[sp.Parent] += sp.Dur
		}
	}
	var probe []float64
	for i := range spans {
		if sp := &spans[i]; sp.Name == "Engine.Decide" && sp.Phase == "timed" && sp.Attrs["cache_hit"] == 1 {
			probe = append(probe, float64(sp.Dur-canon[sp.ID])/1e3)
		}
	}
	if len(probe) > 0 {
		res.setMedian("engine.cache_probe_us", probe, 1)
	} else {
		res.markIdle("engine.cache_probe_us")
	}

	var appendUs, syncUs []float64
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Attrs["sync"] == 1:
			syncUs = append(syncUs, float64(sp.Dur)/1e3)
		case sp.Name == "store.Log.Append":
			appendUs = append(appendUs, float64(sp.Dur)/1e3)
		}
	}
	res.setMedian("store.append_us", appendUs, 1)
	res.setMedian("store.sync_ms", syncUs, 1e-3)
	res.set("store.syncs_per_1k_pairs", ratio(1000*float64(len(syncUs)), float64(mc.pairs)))
	res.set("store.appends_per_miss", ratio(float64(reg["keyedeq_store_appends_total"]), float64(mc.computed)))
	if appends > 0 {
		res.set("store.log_bytes_per_verdict", float64(logGrowth)/float64(appends))
	} else {
		res.markIdle("store.log_bytes_per_verdict")
	}
	if m.replayed > 0 {
		openReplay := durs(spans, func(sp *span) bool {
			return sp.Phase == "mirror" && (sp.Name == "store.Open" || sp.Name == "store.Log.Replay")
		})
		var total float64
		for _, v := range openReplay {
			total += v
		}
		res.set("store.replay_records_per_s", ratio(float64(m.replayed), total/1e6))
	} else {
		res.markIdle("store.replay_records_per_s")
	}
	res.markIdle("engine.run_dedup_share", "engine.run_computed_share", "engine.run_core_busy_share")
	return nil
}
