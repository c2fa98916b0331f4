package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
)

const (
	batchCount  = 24  // batches in the prepared pool, cycled by the timed phase
	batchSize   = 128 // pairs per batch
	batchSetups = 5
)

// batchInput is one prepared batch: a schema and its pairs, as text.
type batchInput struct {
	schema string
	family string
	reqs   []*request
}

// parsedBatch is a batch after set-up: what engine.Run is handed.
type parsedBatch struct {
	schema *schema.Schema
	deps   []fd.FD
	jobs   []engine.Job
	family string
}

// parseBatch is one batch's set-up, sqeq-style: schema.Parse, cq.Parse
// of every query text, and engine.New.  tr, when set, records each call.
func parseBatch(in *batchInput, tr *tracer, trace int64) (*parsedBatch, error) {
	call := func(name string, fn func()) int64 {
		if tr == nil {
			fn()
			return 0
		}
		return tr.timed(trace, 0, name, "setup", in.family, fn)
	}
	pb := &parsedBatch{family: in.family, jobs: make([]engine.Job, len(in.reqs))}
	var err error
	call("schema.Parse", func() { pb.schema, err = schema.Parse(in.schema) })
	if err != nil {
		return nil, err
	}
	call("fd.KeyFDs", func() { pb.deps = fd.KeyFDs(pb.schema) })
	for i, q := range in.reqs {
		j := &pb.jobs[i]
		for _, side := range []struct {
			text string
			dst  **cq.Query
		}{{q.left, &j.Left}, {q.right, &j.Right}} {
			id := call("cq.Parse", func() { *side.dst, err = cq.Parse(side.text) })
			if err != nil {
				return nil, err
			}
			if tr != nil {
				tr.setAttr(id, "bytes", int64(len(side.text)))
			}
		}
		if q.op == "contains" {
			j.Op = engine.OpContained
		}
	}
	call("engine.New", func() { engine.New(pb.schema, pb.deps, engine.Options{Now: time.Now}) })
	return pb, nil
}

// runTally is the sum of a phase's engine reports.
type runTally struct {
	batches, pairs, wrong           int
	hits, deduped, computed, errors int
	evictions                       int64
	lat                             []float64 // ms per batch
	runWall                         time.Duration
}

// runBatch decides one batch on a fresh engine and checks every verdict.
func runBatch(in *batchInput, pb *parsedBatch, o *obs.Obs, t *runTally) *engine.Engine {
	e := engine.New(pb.schema, pb.deps, engine.Options{Now: time.Now, Obs: o})
	start := time.Now()
	rep := e.Run(context.Background(), pb.jobs)
	d := time.Since(start)
	t.batches++
	t.lat = append(t.lat, float64(d.Nanoseconds())/1e6)
	t.runWall += d
	t.pairs += rep.Pairs
	t.hits += rep.CacheHits
	t.deduped += rep.Deduped
	t.computed += rep.Computed
	t.errors += rep.Errors
	t.evictions += rep.Cache.Evictions
	for i, r := range rep.Results {
		if r.Err != nil || r.Holds != in.reqs[i].holds {
			t.wrong++
		}
	}
	return e
}

// check returns the phase's verdict, reconciliation and shape failures.
func (t *runTally) check(what string, d phaseDelta) []string {
	var out []string
	if t.wrong > 0 {
		out = append(out, fmt.Sprintf("%s: %d verdicts differ from the reference or failed", what, t.wrong))
	}
	out = append(out, reconcile(what, int64(t.pairs), d.pairCounts())...)
	if c := d.pairCounts(); c.hits != int64(t.hits) || c.deduped != int64(t.deduped) || c.computed != int64(t.computed) {
		out = append(out, fmt.Sprintf("%s: registry hits/deduped/computed %d/%d/%d, engine reports %d/%d/%d",
			what, c.hits, c.deduped, c.computed, t.hits, t.deduped, t.computed))
	}
	if t.hits != 0 {
		out = append(out, fmt.Sprintf("batch-cold: %d cache hits on fresh engines, want 0", t.hits))
	}
	return out
}

// runBatchCold: sqeq-style batches of first-seen pairs through
// engine.Run, a fresh engine per batch, one caller waiting on each
// batch and the engine's default GOMAXPROCS workers.  Families are
// keyed, graph-long (search-heavy) and wide; gen.PairCorpus draws each
// batch, so pairs repeat within a batch as corpora do and Run's dedupe
// has work.  The timed phase cycles the prepared pool; every engine is
// new, so no verdict is ever cached when its batch starts.
func runBatchCold(cfg config) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	corpora := []string{"keyed", "graph-long", "wide"}
	pool := make([]*batchInput, scaled(batchCount, cfg.scale))
	var all []*request
	for b := range pool {
		corpus := corpora[b%len(corpora)]
		f, err := gen.PairCorpus(rng, corpus, scaled(batchSize, cfg.scale))
		if err != nil {
			return nil, err
		}
		in := &batchInput{schema: f.Schema.String(), family: familyOf(corpus)}
		for _, p := range f.Pairs {
			in.reqs = append(in.reqs, newRequest(corpus, f.Schema, p.Left, p.Right, drawOp(rng), isAlpha(p)))
		}
		all = append(all, in.reqs...)
		pool[b] = in
	}
	if err := references(all, clients); err != nil {
		return nil, err
	}

	res := newResult()
	base := liveHeap()
	res.set("heap_inputs_mb", float64(base)/(1<<20))
	var parsed []*parsedBatch
	var setups []float64
	for k := 0; k < batchSetups; k++ {
		parsed = parsed[:0]
		start := time.Now()
		for _, in := range pool {
			pb, err := parseBatch(in, nil, 0)
			if err != nil {
				return nil, err
			}
			parsed = append(parsed, pb)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.setN("setup_s", median(setups), len(setups))

	reg := obs.NewRegistry()
	o := &obs.Obs{Reg: reg, Now: time.Now}
	var t runTally
	var rs roundStats
	var last *engine.Engine
	pm := mark(reg)
	// A round is one pass over the pool, so every round does the same
	// work; rounds run until the phase's time is up.
	for deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second); time.Now().Before(deadline); {
		pairs0, lat0, cpu0, start := t.pairs, len(t.lat), cpuTime(), time.Now()
		for b := range pool {
			last = runBatch(pool[b], parsed[b], o, &t)
		}
		rs.add(t.pairs-pairs0, time.Since(start), cpuTime()-cpu0, t.lat[lat0:])
	}
	d := pm.delta(reg)
	res.problems = append(res.problems, t.check("timed phase", d)...)
	res.attempted, res.failed = t.pairs, t.errors

	pps := rs.report(res, t.pairs, len(t.lat))
	res.set("alloc_kb_per_pair", ratio(float64(d.allocBytes)/1024, float64(t.pairs)))
	res.set("runtime.gc_cycles_per_1k_pairs", ratio(1000*float64(d.numGC), float64(t.pairs)))
	res.set("engine.run_core_busy_share", ratio(d.cpu.Seconds(), t.runWall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	res.set("engine.run_dedup_share", ratio(float64(t.deduped), float64(t.pairs)))
	res.set("engine.run_computed_share", ratio(float64(t.computed), float64(t.pairs)))
	res.set("engine.cache_hit_share", ratio(float64(t.hits), float64(t.pairs)))
	res.set("engine.cache_evictions", float64(t.evictions))
	res.set("heap_retained_mb", float64(int64(liveHeap())-int64(base))/(1<<20))
	runtime.KeepAlive(parsed)
	runtime.KeepAlive(last)

	if cfg.trace {
		if err := traceBatch(cfg, pool, res, min(t.batches, traceBatches), pps); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return res, nil
}

// traceBatch replays the timed phase's batches traced: set-up with a
// span per call, then each Run as a root span whose engine reports the
// program's stage spans into a sink of its own.
func traceBatch(cfg config, pool []*batchInput, res *result, batches int, untracedPPS float64) error {
	tr := newTracer()
	parsed := make([]*parsedBatch, len(pool))
	for b, in := range pool {
		pb, err := parseBatch(in, tr, setupTraceIDs+int64(b))
		if err != nil {
			return err
		}
		parsed[b] = pb
	}
	reg := obs.NewRegistry()
	var t runTally
	pm := mark(reg)
	start := time.Now()
	for b := 0; b < batches; b++ {
		sink := &obs.CollectSink{}
		runStart := time.Now()
		runBatch(pool[b%len(pool)], parsed[b%len(pool)], &obs.Obs{Reg: reg, Sink: sink, Now: time.Now}, &t)
		id := tr.add(span{Trace: int64(b + 1), Name: "Engine.Run", Phase: "timed", Family: pool[b%len(pool)].family,
			Start: tr.at(runStart), Dur: time.Since(runStart).Nanoseconds()})
		tr.addProgram(int64(b+1), id, "timed", pool[b%len(pool)].family, sink.Spans())
	}
	wall := time.Since(start)
	d := pm.delta(reg)
	res.problems = append(res.problems, t.check("traced replay", d)...)
	res.set("obs.trace_overhead_pct", 100*ratio(untracedPPS-float64(t.pairs)/wall.Seconds(), untracedPPS))

	spans, err := finishTrace(cfg, tr)
	if err != nil {
		return err
	}
	programLayers(res, spans, reg.Snapshot())
	res.markIdle("serve.overhead_us", "serve.route_us", "serve.rejected_share", "serve.latency_p99_ms", "serve.latency_samples",
		"engine.cache_probe_us", "store.append_us", "store.sync_ms", "store.syncs_per_1k_pairs",
		"store.replay_records_per_s", "store.appends_per_miss", "store.log_bytes_per_verdict")
	return nil
}
