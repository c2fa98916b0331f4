package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"keyedeq/internal/chase"
	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Op selects the decision a Job asks for.
type Op int

const (
	// OpEquivalent decides Left ≡ Right (mutual containment).
	OpEquivalent Op = iota
	// OpContained decides Left ⊑ Right.
	OpContained
)

// String renders the op tag used inside pair keys.
func (o Op) String() string {
	if o == OpContained {
		return "sub"
	}
	return "equ"
}

// Options configures an Engine.
type Options struct {
	// Workers sizes the batch worker pool; 0 means runtime.GOMAXPROCS,
	// 1 means strictly sequential execution.
	Workers int
	// CacheSize bounds the verdict cache (entries); 0 means the
	// default of 4096.
	CacheSize int
	// DisableCache turns verdict caching off entirely.
	DisableCache bool
	// JobTimeout bounds each pair's homomorphism searches; 0 means no
	// per-job timeout.  Freeze and chase run under the batch context.
	JobTimeout time.Duration
	// Now, when set, timestamps batch runs so Report.Wall is filled.
	// It is injected (rather than calling time.Now here) because
	// library code must stay clock-free; command layers pass time.Now.
	Now func() time.Time
	// Obs, when set, is installed into every Decide/Run context so the
	// whole pipeline — canonicalization, chase, planning, search —
	// reports through its registry and sink.  When nil, an Obs already
	// carried by the caller's context is used instead; with neither the
	// pipeline runs unobserved at near-zero cost.
	Obs *obs.Obs
	// Store, when set (and caching is enabled), receives every freshly
	// computed verdict at the moment it enters the cache — never cache
	// hits, batch dedups, warm loads, or errored pairs — so a daemon
	// can persist decisions and replay them into the cache on restart.
	// Append failures are counted (CStoreAppendErrors) and otherwise
	// ignored: persistence is best-effort relative to serving.
	Store VerdictStore
}

// VerdictStore receives computed verdicts for persistence.  The engine
// calls Put from its worker goroutines, so implementations must be safe
// for concurrent use.  It is defined here (rather than importing the
// store package) so the engine stays decoupled from any one on-disk
// format.
type VerdictStore interface {
	Put(key string, v Verdict) error
}

// DefaultCacheSize is the verdict cache bound used when Options.CacheSize
// is zero.
const DefaultCacheSize = 4096

// Job is one decision request in a batch.
type Job struct {
	Left, Right *cq.Query
	Op          Op
}

// Result is the outcome of one Job.
type Result struct {
	// Holds is the decision (Left ≡ Right or Left ⊑ Right).
	Holds bool
	// CacheHit reports the verdict came from the cache (Stats then
	// records the original computation's work, not new work).
	CacheHit bool
	// Deduped reports the verdict was computed once for another job of
	// the same batch with the same canonical pair.
	Deduped bool
	// Err is set when the pair was undecidable (validation failure,
	// cancellation, timeout).
	Err error
	// Stats records the work performed for this pair.
	Stats containment.Stats
	// PairKey is the canonical pair key (exposed for tests and
	// debugging).
	PairKey string
}

// Report aggregates a batch run.
type Report struct {
	Results []Result
	// Pairs is len(Results); Holding counts true verdicts; Errors
	// counts failed jobs.
	Pairs, Holding, Errors int
	// Computed counts pairs actually decided by search; CacheHits and
	// Deduped count pairs answered without new work.
	Computed, CacheHits, Deduped int
	// Nodes and ChaseIterations total the new work performed.
	Nodes           int64
	ChaseIterations int
	// Cache snapshots the engine cache after the run.
	Cache CacheStats
	// Wall is the elapsed wall time (zero unless Options.Now was set).
	Wall time.Duration
	// Workers is the pool size the batch ran with.
	Workers int
}

// Engine decides conjunctive query equivalence and containment over a
// fixed schema and dependency set, with canonical-form caching and
// parallel batch execution.  An Engine is safe for concurrent use.
type Engine struct {
	s    *schema.Schema
	deps []fd.FD
	opts Options
	// cache maps canonical pair keys to verdicts; nil when disabled.
	cache *verdictCache
}

// New builds an engine for deciding queries over s under deps (pass
// fd.KeyFDs(s) for the paper's keyed setting, nil for plain CQ
// equivalence).
func New(s *schema.Schema, deps []fd.FD, opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	e := &Engine{s: s, deps: deps, opts: opts}
	if !opts.DisableCache {
		e.cache = newVerdictCache(opts.CacheSize)
	}
	return e
}

// Schema returns the schema the engine decides over.
func (e *Engine) Schema() *schema.Schema { return e.s }

// CacheStats snapshots the verdict cache (zero when caching is off).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// Warm preloads the cache with a previously computed verdict — a store
// replay at boot — without touching the store or the hit/miss
// accounting.  A no-op when caching is disabled.
func (e *Engine) Warm(key string, v Verdict) {
	if e.cache == nil {
		return
	}
	e.cache.put(key, v)
}

// cachePut enters a freshly computed verdict into the cache and
// forwards it to the persistence store, counting appends and append
// failures.  Call sites guard on e.cache != nil, so a disabled cache
// also disables persistence (nothing could be warm-loaded back anyway).
func (e *Engine) cachePut(o *obs.Obs, key string, v Verdict) {
	e.cache.put(key, v)
	if e.opts.Store == nil {
		return
	}
	if err := e.opts.Store.Put(key, v); err != nil {
		o.C(obs.CStoreAppendErrors).Add(1)
		return
	}
	o.C(obs.CStoreAppends).Add(1)
}

// pairKey builds the cache key for a pair.  Equivalence is symmetric,
// so its two canonical keys are sorted to double the hit rate; the
// schema/dependency fingerprint is not included because the cache is
// private to this engine.
func pairKey(op Op, k1, k2 string) string {
	if op == OpEquivalent && k2 < k1 {
		k1, k2 = k2, k1
	}
	return op.String() + "\x1e" + k1 + "\x1f" + k2
}

// withObs resolves the observability handle for a call: the engine's
// configured Obs is installed into ctx (so the chase and search layers
// see it), else whatever Obs the caller's ctx already carries is used.
func (e *Engine) withObs(ctx context.Context) (context.Context, *obs.Obs) {
	if e.opts.Obs != nil {
		return obs.NewContext(ctx, e.opts.Obs), e.opts.Obs
	}
	return ctx, obs.FromContext(ctx)
}

// canonicalize computes a query's canonical key, counting the work and
// emitting a canonicalize span when tracing is on.
func (e *Engine) canonicalize(ctx context.Context, o *obs.Obs, q *cq.Query) string {
	start := o.Time()
	k := CanonicalizeQuery(q, e.s).Key
	o.C(obs.CCanonicalized).Inc()
	if o.SpansOn() {
		o.EmitSpan(ctx, obs.StageCanonicalize, start, nil,
			obs.I("atoms", int64(len(q.Body))))
	}
	return k
}

// countResult bumps the per-pair counters for one finished Result.
// Shared by Decide and Run's aggregation loop so both entry points
// reconcile against the same counter semantics.
func countResult(o *obs.Obs, r *Result) {
	if o == nil {
		return
	}
	o.C(obs.CPairs).Inc()
	switch {
	case r.Err != nil:
		o.C(obs.CPairsErrors).Inc()
	case r.CacheHit:
		o.C(obs.CCacheHits).Inc()
	case r.Deduped:
		o.C(obs.CDeduped).Inc()
	default:
		o.C(obs.CPairsComputed).Inc()
		o.H(obs.HPairNodes).Observe(r.Stats.Nodes)
	}
	if r.Err == nil && r.Holds {
		o.C(obs.CPairsHolding).Inc()
	}
}

// emitVerify sends the closing span of one pair's decision, timed from
// start to end, carrying the verdict and the pair's merged
// containment.Stats.
func emitVerify(ctx context.Context, o *obs.Obs, start, end time.Time, r *Result) {
	if !o.SpansOn() {
		return
	}
	o.EmitSpanAt(obs.WithPair(ctx, r.PairKey), obs.StageVerify, start, end, r.Err,
		obs.B("holds", r.Holds),
		obs.B("cache_hit", r.CacheHit),
		obs.B("deduped", r.Deduped),
		obs.I("nodes", r.Stats.Nodes),
		obs.I("searches", int64(r.Stats.Searches)),
		obs.I("chase_iterations", int64(r.Stats.ChaseIterations)),
		obs.I("chase_merges", int64(r.Stats.ChaseMerges)),
		obs.I("chase_revisited", int64(r.Stats.ChaseRevisited)),
		obs.B("chase_failed", r.Stats.ChaseFailed))
}

// Decide answers a single pair, consulting and filling the cache.  It
// is the single-query entry point behind EquivFunc; batches should use
// Run, which additionally memoizes chase results and parallelizes.
func (e *Engine) Decide(ctx context.Context, q1, q2 *cq.Query, op Op) (res Result) {
	ctx, o := e.withObs(ctx)
	start := o.Time()
	defer func() {
		countResult(o, &res)
		emitVerify(ctx, o, start, o.Time(), &res)
	}()
	// An already-cancelled or expired context never starts work (small
	// decisions can otherwise finish before the search polls ctx, which
	// would make cancellation nondeterministic for callers like the
	// daemon's admission path).
	if err := ctx.Err(); err != nil {
		return Result{Err: err}
	}
	if err := containment.CheckComparable(q1, q2, e.s); err != nil {
		return Result{Err: err}
	}
	k1 := e.canonicalize(ctx, o, q1)
	k2 := e.canonicalize(ctx, o, q2)
	key := pairKey(op, k1, k2)
	ctx = obs.WithPair(ctx, key)
	if e.cache != nil {
		if v, ok := e.cache.get(key); ok {
			return Result{Holds: v.Holds, CacheHit: true, PairKey: key, Stats: v.Stats}
		}
	}
	// Isomorphic queries (equal canonical keys) are interchangeable, so
	// the verdict is immediate for both ops.
	if k1 == k2 {
		if e.cache != nil {
			e.cachePut(o, key, Verdict{Holds: true})
		}
		return Result{Holds: true, PairKey: key}
	}
	if e.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.JobTimeout)
		defer cancel()
	}
	var (
		ok  bool
		st  containment.Stats
		err error
	)
	if op == OpContained {
		ok, st, err = containment.ContainedUnderCtx(ctx, q1, q2, e.s, e.deps)
	} else {
		ok, st, err = containment.EquivalentUnderCtx(ctx, q1, q2, e.s, e.deps)
	}
	if err != nil {
		// Cancellation and timeout never reach the cache: the partial
		// verdict would otherwise shadow a real decision on retry.
		return Result{Err: err, Stats: st, PairKey: key}
	}
	if e.cache != nil {
		e.cachePut(o, key, Verdict{Holds: ok, Stats: st})
		if o != nil {
			o.G(obs.GCacheEntries).Set(int64(e.cache.stats().Entries))
		}
	}
	return Result{Holds: ok, Stats: st, PairKey: key}
}

// EquivalentUnder adapts Decide to the containment.EquivalentUnder
// signature for drop-in use (e.g. as a mapping.EquivFunc): the schema
// and dependencies must be the engine's own.
func (e *Engine) EquivalentUnder(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, containment.Stats, error) {
	if s != e.s {
		return false, containment.Stats{}, fmt.Errorf("engine: schema mismatch (engine bound to %q)", e.s.String())
	}
	r := e.Decide(context.Background(), q1, q2, OpEquivalent)
	return r.Holds, r.Stats, r.Err
}

// frozen is the memoized chase artifact of one canonical query: its
// canonical database (after chasing with the engine's dependencies)
// and frozen head tuple.  Computing it once per distinct query is the
// chase-memoization half of the engine's caching.
type frozen struct {
	once   sync.Once
	db     *instance.Database
	want   instance.Tuple
	failed bool
	// cs is the chase's work, recorded even when the run was cut short
	// by cancellation so partial work is never lost from the books.
	cs  chase.Stats
	err error
	// claimed hands the chase stats to exactly one pair.  The artifact
	// is shared by every pair mentioning the query, but the chase ran
	// once; attributing cs to each sharer would overcount, attributing
	// to none would lose it.  Run claims after its pool drains, in
	// dispatch order, so the first pair to use the artifact books it
	// whatever the workers' interleaving.
	claimed bool
}

// claim returns the artifact's chase stats exactly once; later calls
// (other pairs sharing the artifact) get zero, as does a nil artifact
// (one the pair never used).  Summing claimed stats over a batch
// therefore equals the chase work actually performed, which is what
// the obs reconciliation check enforces.  Not safe for concurrent use.
func (f *frozen) claim() containment.Stats {
	if f == nil || f.claimed {
		return containment.Stats{}
	}
	f.claimed = true
	return containment.ChaseStats(f.cs)
}

// batchState carries the per-Run shared structures.
type batchState struct {
	ctx    context.Context
	consts []value.Value // every constant of the batch, reserved in every freeze
	// repr maps each canonical key to the batch's first query with that
	// key, the presentation its chase artifact is built from, so the
	// artifact does not depend on which pair's worker asks first.
	repr   map[string]*cq.Query
	mu     sync.Mutex
	frozen map[string]*frozen // canonical query key -> artifact
}

// frozenOf returns the chase artifact for canonical key k, computing it
// at most once per batch.  The freeze reserves every constant of the
// whole batch so fresh nulls never collide with any query's constants —
// the invariant that makes sharing the database across pairs sound.
func (e *Engine) frozenOf(b *batchState, k string) *frozen {
	q := b.repr[k]
	b.mu.Lock()
	f, ok := b.frozen[k]
	if !ok {
		f = &frozen{}
		b.frozen[k] = f
	}
	b.mu.Unlock()
	f.once.Do(func() {
		o := obs.FromContext(b.ctx)
		tb := chase.NewTableau(e.s)
		vars, err := chase.Freeze(tb, q)
		if err != nil {
			f.err = err
			return
		}
		head, err := chase.HeadTerms(tb, q, vars)
		if err != nil {
			f.err = err
			return
		}
		if len(e.deps) > 0 {
			// Keep the partial stats on cancellation: the chase layer
			// already counted them, and claim() must hand the same
			// numbers to the claiming pair or the books diverge.  The
			// span begins here, just before the chase: the early-error
			// and no-deps paths emit no freeze_chase span, so a start
			// captured at function entry would be begun and never ended.
			start := o.Time()
			cs, cerr := tb.RunCtx(b.ctx, e.deps)
			f.cs = cs
			if o.SpansOn() {
				o.EmitSpan(b.ctx, obs.StageFreezeChase, start, cerr,
					obs.I("iterations", int64(cs.Iterations)),
					obs.I("merges", int64(cs.Merges)),
					obs.I("revisited", int64(cs.Revisited)),
					obs.B("failed", tb.Failed()))
			}
			if cerr != nil {
				f.err = cerr
				return
			}
		}
		if tb.Failed() {
			f.failed = true
			return
		}
		var alloc value.Allocator
		alloc.ReserveAll(b.consts)
		db, valOf, err := tb.ToDatabase(&alloc)
		if err != nil {
			f.err = err
			return
		}
		f.db = db
		f.want = make(instance.Tuple, len(head))
		for i, h := range head {
			f.want[i] = valOf[h]
		}
	})
	return f
}

// containedFrom decides frozenLeft ⊑ right using the memoized canonical
// database.  A failed chase means the left query is empty under the
// dependencies, so containment holds vacuously.
func containedFrom(ctx context.Context, f *frozen, right *cq.Query) (bool, containment.Stats, error) {
	var st containment.Stats
	if f.err != nil {
		return false, st, f.err
	}
	if f.failed {
		return true, containment.FailedChaseStats(), nil
	}
	ok, _, es, err := cq.FindAnswerBindingCtx(ctx, right, f.db, f.want)
	return ok, containment.SearchStats(es.Nodes), err
}

// Run decides every job of the batch in three phases: canonicalize the
// distinct queries on the worker pool; then, on the caller's goroutine,
// dedupe identical pairs and probe the cache; then fan the remaining
// work across the pool.  Chase artifacts are shared per distinct query;
// the homomorphism searches of each pair run under the per-job timeout.
// Results are positionally aligned with jobs.
func (e *Engine) Run(ctx context.Context, jobs []Job) *Report {
	ctx, o := e.withObs(ctx)
	rep := &Report{Results: make([]Result, len(jobs)), Pairs: len(jobs), Workers: e.opts.Workers}
	var started time.Time
	if e.opts.Now != nil {
		started = e.opts.Now()
	}

	// Keying phase: canonicalize each distinct query once, on the pool.
	// Batches repeat queries heavily (identity views, shared sides,
	// regenerated corpora), so the distinct query objects are collected
	// first; workers then print each one and canonicalize each distinct
	// presentation exactly once, so clones — pointer-distinct but
	// textually identical — share a single canonicalization.
	slotOf := make(map[*cq.Query]int)
	var distinct []*cq.Query
	leftSlot := make([]int, len(jobs))
	rightSlot := make([]int, len(jobs))
	slot := func(q *cq.Query) int {
		s, ok := slotOf[q]
		if !ok {
			s = len(distinct)
			slotOf[q] = s
			distinct = append(distinct, q)
		}
		return s
	}
	for i, j := range jobs {
		if err := containment.CheckComparable(j.Left, j.Right, e.s); err != nil {
			rep.Results[i] = Result{Err: err}
			leftSlot[i] = -1
			continue
		}
		leftSlot[i], rightSlot[i] = slot(j.Left), slot(j.Right)
	}
	keys := make([]string, len(distinct))
	memo := &canonMemo{byPresentation: make(map[string]*canonEntry, len(distinct))}
	fanOut(e.opts.Workers, len(distinct), func(s int) {
		keys[s] = memo.key(distinct[s].String(), func() string {
			return e.canonicalize(ctx, o, distinct[s])
		})
	})

	// Group jobs by canonical pair key; one leader computes, the rest
	// copy.
	type group struct {
		leader  int
		indexes []int
	}
	groups := make(map[string]*group)
	var order []string // deterministic dispatch order
	repr := make(map[string]*cq.Query, len(distinct))
	for s, k := range keys {
		if _, ok := repr[k]; !ok {
			repr[k] = distinct[s]
		}
	}
	for i, j := range jobs {
		if leftSlot[i] < 0 {
			continue
		}
		pk := pairKey(j.Op, keys[leftSlot[i]], keys[rightSlot[i]])
		rep.Results[i].PairKey = pk
		g, ok := groups[pk]
		if !ok {
			g = &group{leader: i}
			groups[pk] = g
			order = append(order, pk)
		}
		g.indexes = append(g.indexes, i)
	}

	// Cache probe per group.
	var work []string
	for _, pk := range order {
		if e.cache == nil {
			work = append(work, pk)
			continue
		}
		if v, ok := e.cache.get(pk); ok {
			for _, i := range groups[pk].indexes {
				rep.Results[i].Holds = v.Holds
				rep.Results[i].CacheHit = true
				rep.Results[i].Stats = v.Stats
				now := o.Time()
				emitVerify(ctx, o, now, now, &rep.Results[i])
			}
			continue
		}
		work = append(work, pk)
	}

	// Compute the remaining groups on the pool.
	bs := &batchState{ctx: ctx, consts: batchConstants(jobs), repr: repr, frozen: make(map[string]*frozen)}
	runs := make([]leaderRun, len(work))
	fanOut(e.opts.Workers, len(work), func(w int) {
		g := groups[work[w]]
		r := &runs[w]
		r.start = o.Time()
		r.res, r.left, r.right = e.runLeader(bs, jobs[g.leader], keys[leftSlot[g.leader]], keys[rightSlot[g.leader]])
		r.end = o.Time()
	})

	// Publish in dispatch order: book each shared chase artifact's work
	// to the first pair that used it, then cache, trace and copy the
	// verdict to the group's duplicates.
	for w, pk := range work {
		g, r := groups[pk], &runs[w]
		res := r.res
		res.Stats.Merge(r.left.claim())
		res.Stats.Merge(r.right.claim())
		res.PairKey = pk
		rep.Results[g.leader] = res
		// Cancellation and timeout never reach the cache: the partial
		// verdict would shadow a real decision on retry.
		if res.Err == nil && e.cache != nil {
			e.cachePut(o, pk, Verdict{Holds: res.Holds, Stats: res.Stats})
		}
		emitVerify(ctx, o, r.start, r.end, &res)
		for _, i := range g.indexes[1:] {
			dup := res
			dup.Deduped = true
			// A dedup copy carries none of the leader's work, only the
			// vacuity marker the verdict depends on.
			dup.Stats = containment.Stats{}
			if res.Stats.ChaseFailed {
				dup.Stats = containment.FailedChaseStats()
			}
			rep.Results[i] = dup
			emitVerify(ctx, o, r.start, r.end, &dup)
		}
	}

	for i := range rep.Results {
		r := &rep.Results[i]
		countResult(o, r)
		switch {
		case r.Err != nil:
			rep.Errors++
		case r.CacheHit:
			rep.CacheHits++
		case r.Deduped:
			rep.Deduped++
		default:
			rep.Computed++
			rep.Nodes += r.Stats.Nodes
			rep.ChaseIterations += r.Stats.ChaseIterations
		}
		if r.Err == nil && r.Holds {
			rep.Holding++
		}
	}
	if e.cache != nil {
		rep.Cache = e.cache.stats()
		o.G(obs.GCacheEntries).Set(int64(rep.Cache.Entries))
	}
	if e.opts.Now != nil {
		rep.Wall = e.opts.Now().Sub(started)
	}
	return rep
}

// fanOut calls fn(0), …, fn(n-1) across up to workers goroutines,
// handing indexes out in ascending order, and returns when every call
// has.  With one worker (or one task) the calls run in order on the
// caller's goroutine, so Workers: 1 stays strictly sequential.
func fanOut(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// canonEntry is one presentation's canonical key, computed once.
type canonEntry struct {
	once sync.Once
	key  string
}

// canonMemo maps printed presentations to their canonical keys for one
// batch, so concurrent workers holding clones of a query canonicalize
// it once: the first computes under the entry's Once, the rest wait on
// it (the same pattern as frozenOf's chase artifacts).
type canonMemo struct {
	mu             sync.Mutex
	byPresentation map[string]*canonEntry
}

// key returns the canonical key of presentation p, calling compute at
// most once per presentation.
func (m *canonMemo) key(p string, compute func() string) string {
	m.mu.Lock()
	ce, ok := m.byPresentation[p]
	if !ok {
		ce = &canonEntry{}
		m.byPresentation[p] = ce
	}
	m.mu.Unlock()
	ce.once.Do(func() { ce.key = compute() })
	return ce.key
}

// leaderRun is one dispatched group's outcome on the pool: the leader's
// Result before chase work is booked, the chase artifacts it used (nil
// when unused), and its start and end readings of the injected clock.
type leaderRun struct {
	res         Result
	left, right *frozen
	start, end  time.Time
}

// runLeader decides one deduplicated pair using the batch's memoized
// chase artifacts, returning the artifacts it used so the caller can
// book their chase work.
func (e *Engine) runLeader(bs *batchState, j Job, lk, rk string) (Result, *frozen, *frozen) {
	jctx := bs.ctx
	if err := jctx.Err(); err != nil {
		return Result{Err: err}, nil, nil
	}
	// Equal canonical keys mean the queries are isomorphic (a key is a
	// faithful encoding even when inexact), so both ops hold with no
	// chase or homomorphism search at all.
	if lk == rk {
		return Result{Holds: true}, nil, nil
	}
	if e.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(jctx, e.opts.JobTimeout)
		defer cancel()
	}
	fl := e.frozenOf(bs, lk)
	ok, st, err := containedFrom(jctx, fl, j.Right)
	if err != nil || !ok || j.Op == OpContained {
		return Result{Holds: ok, Stats: st, Err: err}, fl, nil
	}
	fr := e.frozenOf(bs, rk)
	ok2, st2, err := containedFrom(jctx, fr, j.Left)
	st.Merge(st2)
	return Result{Holds: ok2, Stats: st, Err: err}, fl, fr
}

// batchConstants collects every constant mentioned by any query of the
// batch, sorted and deduplicated.
func batchConstants(jobs []Job) []value.Value {
	var s value.Set
	for _, j := range jobs {
		if j.Left != nil {
			for _, c := range j.Left.Constants() {
				s.Add(c)
			}
		}
		if j.Right != nil {
			for _, c := range j.Right.Constants() {
				s.Add(c)
			}
		}
	}
	return s.Values()
}

// Fingerprint renders the (schema, dependencies) pair an engine is
// bound to; Pool uses it to route decisions.
func Fingerprint(s *schema.Schema, deps []fd.FD) string {
	parts := make([]string, 0, len(deps)+1)
	parts = append(parts, s.String())
	ds := make([]string, len(deps))
	for i, d := range deps {
		ds[i] = d.String()
	}
	sort.Strings(ds)
	parts = append(parts, ds...)
	return strings.Join(parts, "\x00")
}
