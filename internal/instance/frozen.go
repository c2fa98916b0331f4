package instance

import (
	"sync"

	"keyedeq/internal/invariant"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// This file implements the frozen (interned) view of a database: every
// value interned to a dense value.ID and every relation body stored as
// one flat fixed-width row array.  The chase and the homomorphism
// search run their hot loops over these ID rows; surface values
// reappear only at the decode boundary (witnesses, dumps, errors).
// The frozen view is derived state — it is memoized per Database and
// invalidated by mutation, never mutated itself.

// FrozenRelation is one relation instance encoded as interned rows:
// rows holds NumRows()*Arity() IDs, row-major, in exactly the order of
// Relation.Tuples() (lexicographic by value), so positional row
// indexes mean the same thing in both representations.
type FrozenRelation struct {
	Scheme *schema.Relation
	arity  int
	rows   []value.ID

	// distinct memoizes per-column distinct-value counts for the search
	// cost model.  It is built lazily, one column at a time, on first
	// request — never during FreezeDatabase, so bulk freezing stays on
	// its allocation budget — and guarded by its own mutex so concurrent
	// readers of a shared frozen view stay safe.
	distinctMu sync.Mutex
	distinct   []int

	// idxMemo caches derived read-only access structures (hash indexes,
	// keyed by the caller's signature of the indexed positions).  Like
	// distinct, it exists because the frozen view is immutable: anything
	// derived from the rows can be computed once and shared by every
	// search against this view.
	idxMu   sync.RWMutex
	idxMemo map[string]any
}

// NewFrozenRelation wraps pre-interned flat rows in row-major order —
// the bulk-load path for instances too large to stage through the
// map-backed Relation.  The row width is the scheme's arity.
func NewFrozenRelation(scheme *schema.Relation, rows []value.ID) *FrozenRelation {
	arity := scheme.Arity()
	invariant.Mustf(arity > 0 && len(rows)%arity == 0,
		"instance: frozen %q: %d cells is not a multiple of arity %d", scheme.Name, len(rows), arity)
	return &FrozenRelation{Scheme: scheme, arity: arity, rows: rows}
}

// Arity returns the fixed row width.
func (f *FrozenRelation) Arity() int { return f.arity }

// NumRows returns the number of rows.
func (f *FrozenRelation) NumRows() int {
	if f.arity == 0 {
		return 0
	}
	return len(f.rows) / f.arity
}

// Row returns row i as a read-only slice view into the flat array.
func (f *FrozenRelation) Row(i int) []value.ID {
	return f.rows[i*f.arity : (i+1)*f.arity : (i+1)*f.arity]
}

// Cell returns position p of row i.
func (f *FrozenRelation) Cell(i, p int) value.ID { return f.rows[i*f.arity+p] }

// DistinctAt returns the number of distinct IDs in column p — the
// cardinality statistic the adaptive search planner turns into
// per-probe candidate estimates.  The count is computed on first
// request and memoized; the frozen view is immutable, so it never goes
// stale.  Safe for concurrent use.
func (f *FrozenRelation) DistinctAt(p int) int {
	n := f.NumRows()
	if n == 0 || p < 0 || p >= f.arity {
		return 0
	}
	f.distinctMu.Lock()
	defer f.distinctMu.Unlock()
	if f.distinct == nil {
		f.distinct = make([]int, f.arity)
	}
	if d := f.distinct[p]; d > 0 {
		return d
	}
	seen := make(map[value.ID]struct{}, n)
	for i := 0; i < n; i++ {
		seen[f.Cell(i, p)] = struct{}{}
	}
	f.distinct[p] = len(seen)
	return f.distinct[p]
}

// IndexMemo returns the cached derived structure stored under sig,
// building and caching it on first request.  The build callback may
// decline (returning ok=false, e.g. on context cancellation); nothing
// is cached then and the next caller builds afresh.  The build runs
// under the write lock, so concurrent requests for one signature do
// the work exactly once and everyone else blocks until it is shared —
// the result must be treated as read-only.
func (f *FrozenRelation) IndexMemo(sig string, build func() (any, bool)) (any, bool) {
	f.idxMu.RLock()
	v, hit := f.idxMemo[sig]
	f.idxMu.RUnlock()
	if hit {
		return v, true
	}
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	if v, hit := f.idxMemo[sig]; hit {
		return v, true
	}
	v, ok := build()
	if !ok {
		return nil, false
	}
	if f.idxMemo == nil {
		f.idxMemo = make(map[string]any)
	}
	f.idxMemo[sig] = v
	return v, true
}

// Frozen is the interned view of one Database: a shared Interner and
// one FrozenRelation per schema relation, positionally aligned with
// Database.Relations.  IDs are meaningful only relative to this view's
// Interner and must be decoded before they escape it.
type Frozen struct {
	Schema    *schema.Schema
	Interner  *value.Interner
	Relations []*FrozenRelation

	planMu   sync.RWMutex
	planMemo map[any]any
}

// PlanMemo returns the cached derived structure stored under key,
// building and caching it on first request — the frozen view's
// prepared-plan cache.  A compiled search plan is a pure function of
// the query and this view's relation cardinalities, so repeated
// decisions against one frozen database (engine replays, containment
// in both directions, benchmark passes) share a single compilation.
// The build runs under the write lock and its result must be treated
// as read-only.
func (f *Frozen) PlanMemo(key any, build func() any) any {
	f.planMu.RLock()
	v, hit := f.planMemo[key]
	f.planMu.RUnlock()
	if hit {
		return v
	}
	f.planMu.Lock()
	defer f.planMu.Unlock()
	if v, hit := f.planMemo[key]; hit {
		return v
	}
	v = build()
	if f.planMemo == nil {
		f.planMemo = make(map[any]any)
	}
	f.planMemo[key] = v
	return v
}

// FreezeDatabase builds the interned view of d: values are interned in
// deterministic first-occurrence order (relations in schema order,
// tuples in sorted order, positions left to right), so freezing equal
// databases always yields identical ID tables and row arrays.
func FreezeDatabase(d *Database) *Frozen {
	return freeze(d, nil)
}

// FreezeRelations builds an interned view of only the relations at the
// schema indexes idxs (duplicates allowed); every other entry of
// Relations stays nil.  Values are interned as FreezeDatabase does,
// over the chosen relations in schema order.  The view is not
// memoized: it suits a one-shot reader of a few relations of a
// database that may be large or often mutated, where Database.Frozen
// would re-intern every relation after each mutation.
func FreezeRelations(d *Database, idxs []int) *Frozen {
	want := make([]bool, len(d.Relations))
	for _, i := range idxs {
		want[i] = true
	}
	return freeze(d, want)
}

// freeze interns the relations want selects (all of them when want is
// nil).
func freeze(d *Database, want []bool) *Frozen {
	size := 0
	for i, r := range d.Relations {
		if want == nil || want[i] {
			size += r.Len()
		}
	}
	f := &Frozen{
		Schema:    d.Schema,
		Interner:  value.NewInterner(size),
		Relations: make([]*FrozenRelation, len(d.Relations)),
	}
	for i, r := range d.Relations {
		if want != nil && !want[i] {
			continue
		}
		arity := 0
		if r.Scheme != nil {
			arity = r.Scheme.Arity()
		}
		tuples := r.Tuples()
		if arity == 0 && len(tuples) > 0 {
			arity = len(tuples[0])
		}
		fr := &FrozenRelation{Scheme: r.Scheme, arity: arity}
		fr.rows = make([]value.ID, 0, len(tuples)*arity)
		for _, t := range tuples {
			for _, v := range t {
				fr.rows = append(fr.rows, f.Interner.Intern(v))
			}
		}
		f.Relations[i] = fr
	}
	return f
}

// DecodeTuple decodes row i of relation ri back to surface values.
func (f *Frozen) DecodeTuple(ri, i int) Tuple {
	fr := f.Relations[ri]
	out := make(Tuple, fr.arity)
	for p := 0; p < fr.arity; p++ {
		v, ok := f.Interner.Decode(fr.Cell(i, p))
		invariant.Mustf(ok, "instance: frozen row %d of relation %d holds foreign ID", i, ri)
		out[p] = v
	}
	return out
}

// Frozen returns the memoized interned view of d, rebuilding it only
// after a mutation.  Like Tuples(), the result must be treated as
// read-only, and concurrent readers are safe as long as no writer runs.
func (d *Database) Frozen() *Frozen {
	d.frozenMu.Lock()
	defer d.frozenMu.Unlock()
	if d.frozenMemo != nil {
		fresh := true
		for i, r := range d.Relations {
			if r.versionSnapshot() != d.frozenVers[i] {
				fresh = false
				break
			}
		}
		if fresh {
			return d.frozenMemo
		}
	}
	vers := make([]uint64, len(d.Relations))
	for i, r := range d.Relations {
		vers[i] = r.versionSnapshot()
	}
	d.frozenMemo, d.frozenVers = FreezeDatabase(d), vers
	return d.frozenMemo
}
