package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/store"
)

// The daemon's engines are private to the serve package, so a traced
// run replays each request's layers on a benchmark-owned mirror: the
// same public calls the daemon makes, in the same order, each wrapped
// in a span.  Its engines run with Options.Store set to a timing
// wrapper over store.Log.Append, and each caller's context carries an
// obs.Obs with a CollectSink of its own, so the program's stage spans
// (canonicalize, freeze_chase, plan, search, verify) are collected per
// request and join that request's trace.

// logTimer times the appends of the mirror's verdict log.  Appends are
// numbered under its lock, so with SyncEvery = syncEvery the appends
// that carried the log's fsync are known exactly.
type logTimer struct {
	log *store.Log
	tr  *tracer

	mu      sync.Mutex
	appends int
	pending map[string][]span // append spans not yet claimed by their Decide, by pair key
}

// timedStore is one mirror engine's engine.VerdictStore: the daemon's
// fingerprint-prefixed append, timed.
type timedStore struct {
	lt *logTimer
	fp string
}

func (s timedStore) Put(key string, v engine.Verdict) error {
	lt := s.lt
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.appends++
	start := time.Now()
	err := lt.log.Append(store.Record{Key: s.fp + fpSep + key, Holds: v.Holds, Stats: v.Stats})
	sp := span{Name: "store.Log.Append", Start: lt.tr.at(start), Dur: time.Since(start).Nanoseconds()}
	if lt.appends%syncEvery == 0 {
		sp.Attrs = map[string]int64{"sync": 1}
	}
	lt.pending[key] = append(lt.pending[key], sp)
	return err
}

// claim returns and forgets the append spans made for a pair key.
func (lt *logTimer) claim(key string) []span {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	sps := lt.pending[key]
	delete(lt.pending, key)
	return sps
}

// mirror is the traced run's benchmark-owned daemon stand-in.
type mirror struct {
	tr  *tracer
	reg *obs.Registry
	lt  *logTimer
	obs [clients]*obs.Obs // one per caller, each with its own sink

	mu        sync.Mutex
	engines   map[string]*engine.Engine
	warm      map[string]map[string]store.Record // replayed verdicts by fingerprint, then pair key
	replayed  int
	decisions atomic.Int64 // Engine.Decide calls made
}

// openMirror opens the mirror's verdict log at path, replays it into
// the warm map as the daemon's boot does, and records both calls.
func openMirror(tr *tracer, path string) (*mirror, error) {
	m := &mirror{
		tr:      tr,
		reg:     obs.NewRegistry(),
		engines: make(map[string]*engine.Engine),
		warm:    make(map[string]map[string]store.Record),
	}
	for c := range m.obs {
		m.obs[c] = &obs.Obs{Reg: m.reg, Sink: &obs.CollectSink{}, Now: time.Now}
	}
	var log *store.Log
	var err error
	tr.timed(0, 0, "store.Open", "mirror", "", func() {
		log, err = store.Open(path, store.Options{SyncEvery: syncEvery})
	})
	if err != nil {
		return nil, err
	}
	m.lt = &logTimer{log: log, tr: tr, pending: make(map[string][]span)}
	tr.timed(0, 0, "store.Log.Replay", "mirror", "", func() {
		err = log.Replay(func(r store.Record) error {
			m.replayed++
			if fp, pk, ok := strings.Cut(r.Key, fpSep); ok {
				if m.warm[fp] == nil {
					m.warm[fp] = make(map[string]store.Record)
				}
				m.warm[fp][pk] = r
			}
			return nil
		})
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	return m, nil
}

// close syncs the log, recording the sync, and closes it.
func (m *mirror) close() error {
	var err error
	start := time.Now()
	err = m.lt.log.Sync()
	m.tr.add(span{Name: "store.Log.Sync", Phase: "drain", Start: m.tr.at(start),
		Dur: time.Since(start).Nanoseconds(), Attrs: map[string]int64{"sync": 1}})
	if cerr := m.lt.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// engineFor returns the mirror's engine for a fingerprint, creating and
// warm-loading it on first use as the daemon does.
func (m *mirror) engineFor(fp string, sch *schema.Schema, deps []fd.FD) *engine.Engine {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.engines[fp]
	if !ok {
		e = engine.New(sch, deps, engine.Options{Now: time.Now, Store: timedStore{lt: m.lt, fp: fp}})
		for pk, r := range m.warm[fp] {
			e.Warm(pk, engine.Verdict{Holds: r.Holds, Stats: r.Stats})
		}
		m.engines[fp] = e
	}
	return e
}

// cacheStats sums the mirror engines' cache statistics.
func (m *mirror) cacheStats() engine.CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out engine.CacheStats
	for _, e := range m.engines {
		cs := e.CacheStats()
		out.Hits += cs.Hits
		out.Misses += cs.Misses
		out.Evictions += cs.Evictions
	}
	return out
}

// mirrored is what one mirrored request measured.
type mirrored struct {
	holds, hit    bool
	decide, route int64 // ns in Engine.Decide; ns in schema.Parse + fd.KeyFDs + engine.Fingerprint
}

// decide replays one request's layers on caller c, recording each call
// as a span of trace `trace` under parent.
func (m *mirror) decide(c int, trace, parent int64, phase string, q *request) (mirrored, error) {
	var out mirrored
	tr := m.tr
	fam := q.family
	var (
		sch         *schema.Schema
		deps        []fd.FD
		fp          string
		left, right *cq.Query
		err, rerr   error
	)
	var body decideBody
	tr.timed(trace, parent, "json.Unmarshal", phase, fam, func() { body, err = q.texts() })
	if err != nil {
		return out, err
	}
	route := func(id int64) { out.route += tr.spanDur(id) }
	route(tr.timed(trace, parent, "schema.Parse", phase, fam, func() { sch, err = schema.Parse(body.Schema) }))
	if err != nil {
		return out, err
	}
	route(tr.timed(trace, parent, "fd.KeyFDs", phase, fam, func() { deps = fd.KeyFDs(sch) }))
	route(tr.timed(trace, parent, "engine.Fingerprint", phase, fam, func() { fp = engine.Fingerprint(sch, deps) }))
	e := m.engineFor(fp, sch, deps)
	parseSpan := func(text string, dst **cq.Query, errp *error) {
		id := tr.timed(trace, parent, "cq.Parse", phase, fam, func() { *dst, *errp = cq.Parse(text) })
		tr.setAttr(id, "bytes", int64(len(text)))
	}
	parseSpan(body.Left, &left, &err)
	parseSpan(body.Right, &right, &rerr)
	if err != nil || rerr != nil {
		return out, fmt.Errorf("parsing %q / %q: %v / %v", body.Left, body.Right, err, rerr)
	}
	tr.timed(trace, parent, "engine.CanonicalizeQuery", phase, fam, func() { engine.CanonicalizeQuery(left, sch) })
	tr.timed(trace, parent, "engine.CanonicalizeQuery", phase, fam, func() { engine.CanonicalizeQuery(right, sch) })
	op := engine.OpEquivalent
	if q.op == "contains" {
		op = engine.OpContained
	}
	o := m.obs[c]
	var res engine.Result
	id := tr.timed(trace, parent, "Engine.Decide", phase, fam, func() {
		res = e.Decide(obs.NewContext(context.Background(), o), left, right, op)
	})
	m.decisions.Add(1)
	if res.Err != nil {
		return out, res.Err
	}
	sink := o.Sink.(*obs.CollectSink)
	tr.addProgram(trace, id, phase, fam, sink.Spans())
	sink.Reset()
	for _, sp := range m.lt.claim(res.PairKey) {
		sp.Trace, sp.Parent, sp.Phase, sp.Family = trace, id, phase, fam
		tr.add(sp)
	}
	out.holds, out.hit, out.decide = res.Holds, res.CacheHit, tr.spanDur(id)
	if res.CacheHit {
		tr.setAttr(id, "cache_hit", 1)
	}
	return out, nil
}

// mirrorLoad replays requests [0, n) of seq on the mirror in a closed
// loop.  rootOf gives each request's trace and parent span.
func mirrorLoad(m *mirror, pool []*request, seq []int32, n int, phase string,
	rootOf func(i int) (trace, parent int64)) ([]mirrored, *tally, error) {
	out := make([]mirrored, n)
	errs := make([]error, clients)
	per := make([]tally, clients)
	closedLoop(0, n, time.Time{}, func(c, i int) {
		q := pool[seq[i%len(seq)]]
		trace, parent := rootOf(i)
		r, err := m.decide(c, trace, parent, phase, q)
		per[c].done++
		if err != nil {
			errs[c] = err
			per[c].failed++
			return
		}
		per[c].decided++
		if r.holds != q.holds {
			per[c].wrong++
		}
		out[i] = r
	})
	t := &tally{}
	for c := range per {
		t.merge(&per[c])
		if errs[c] != nil {
			return nil, nil, errs[c]
		}
	}
	return out, t, nil
}
