package cq

import (
	"context"
	"fmt"
	"strconv"

	"keyedeq/internal/instance"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// EvalStats reports work done by an evaluation: Nodes counts assignments
// attempted in the backtracking join (the homomorphism search tree size).
type EvalStats struct {
	Nodes int64
	// CompNodes breaks Nodes down by join-graph connected component on
	// the pipeline search path (nil for the dense scan and the naive
	// search).  Components the search never reached — a miss or
	// cancellation in an earlier component ends the search — contribute
	// no entry, so the recorded entries always sum to Nodes.
	CompNodes []int64
}

// cancelCheckMask bounds how often the backtracking search polls its
// context: once every cancelCheckMask+1 nodes, so cancellation support
// costs nothing measurable on the hot path.
const cancelCheckMask = 0x3ff

// Eval evaluates q over database d, returning the answer as a relation
// instance with a synthesized scheme (named by q.HeadRel, attributes
// c0..cn-1, no key).  Evaluation enumerates the compiled plan through
// the streamed pipeline (evalPipeline); the classical naive
// backtracking join, evalNaive, is its test oracle.
func Eval(q *Query, d *instance.Database) (*instance.Relation, error) {
	rel, _, err := EvalWithStats(q, d)
	return rel, err
}

// EvalInto evaluates q and labels the result with the provided scheme,
// which must have q's head type.
func EvalInto(q *Query, d *instance.Database, scheme *schema.Relation) (*instance.Relation, error) {
	ht, err := q.HeadType(d.Schema)
	if err != nil {
		return nil, err
	}
	if len(ht) != scheme.Arity() {
		return nil, fmt.Errorf("cq: head arity %d, scheme %q wants %d", len(ht), scheme.Name, scheme.Arity())
	}
	for i, t := range ht {
		if scheme.Attrs[i].Type != t {
			return nil, fmt.Errorf("cq: head position %d has type %v, scheme %q wants %v", i, t, scheme.Name, scheme.Attrs[i].Type)
		}
	}
	rel, _, err := evalCore(q, d, scheme)
	return rel, err
}

// EvalWithStats is Eval returning search statistics.
func EvalWithStats(q *Query, d *instance.Database) (*instance.Relation, EvalStats, error) {
	ht, err := q.HeadType(d.Schema)
	if err != nil {
		return nil, EvalStats{}, err
	}
	name := q.HeadRel
	if name == "" {
		name = "Q"
	}
	scheme := &schema.Relation{Name: name}
	for i, t := range ht {
		scheme.Attrs = append(scheme.Attrs, schema.Attribute{Name: fmt.Sprintf("c%d", i), Type: t})
	}
	return evalCore(q, d, scheme)
}

func evalCore(q *Query, d *instance.Database, scheme *schema.Relation) (*instance.Relation, EvalStats, error) {
	out := instance.NewRelation(scheme)
	if len(q.Body) == 0 {
		return out, EvalStats{}, fmt.Errorf("cq: empty body")
	}
	stats, err := evalPipeline(context.Background(), q, d, out)
	return out, stats, err
}

// evalPipeline is the full-enumeration driver behind Eval.  It plans
// the body with only the constants prebound, then, component by
// component over one streamed searcher: a head-free component needs a
// single match (it only gates non-emptiness), while a head-bearing
// component's matches are all enumerated by resuming the pipeline,
// keeping each distinct projection onto the component's head classes
// (deduplicated in ID space).  The answer is the cross product of the
// per-component projections, decoded to surface values at the emit
// boundary — so independent components never multiply each other's
// backtracking.
//
//keyedeq:hot -- full-enumeration evaluation visits every match of every component
func evalPipeline(ctx context.Context, q *Query, d *instance.Database, out *instance.Relation) (EvalStats, error) {
	var stats EvalStats
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		return stats, nil
	}
	rels, relIdxs, err := resolveRelations(q, d)
	if err != nil {
		return stats, err
	}
	pres := collectConstPrebindings(q, eq, nil)
	plan := buildPlan(q, rels, relIdxs, eq, pres)
	// Intern only the relations the body touches: Eval's callers
	// (mapping application, view materialization) often evaluate over
	// large databases they mutate between calls, where re-freezing the
	// whole database each time would dwarf the evaluation.
	s := newStreamSearcher(ctx, plan, instance.FreezeRelations(d, relIdxs), &stats)
	s.prebind(pres)

	// sols[ci] holds component ci's distinct head-class projections,
	// flattened len(headRoots) IDs per projection; heads lists the
	// head-bearing components in plan order.
	sols := make([][]value.ID, len(plan.comps))
	heads := make([]int, 0, len(plan.comps))
	var key []byte
	for ci := range plan.comps {
		comp := &plan.comps[ci]
		before := stats.Nodes
		if len(comp.headRoots) == 0 {
			found := s.runPipeline(comp.steps, false)
			stats.CompNodes = append(stats.CompNodes, stats.Nodes-before)
			if !found {
				return stats, s.canceled
			}
			s.unbindTo(0)
			continue
		}
		seen := make(map[string]struct{})
		for resume := false; s.runPipeline(comp.steps, resume); resume = true {
			key = key[:0]
			for _, id := range comp.headRoots {
				key = appendIDKey(key, s.binding[id])
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			for _, id := range comp.headRoots {
				sols[ci] = append(sols[ci], s.binding[id])
			}
		}
		stats.CompNodes = append(stats.CompNodes, stats.Nodes-before)
		if s.canceled != nil || len(sols[ci]) == 0 {
			return stats, s.canceled
		}
		heads = append(heads, ci)
	}
	return stats, s.emitProduct(q, eq, sols, heads, out)
}

// emitProduct inserts the head tuple of every combination of one
// projection per head-bearing component, odometer style (the last
// component varies fastest).  Constant-bound head classes read their
// prebound IDs, which the per-component searches left in place.  The
// product can dwarf the searches (k components of n projections emit
// n^k tuples), so it polls the context on its own emission counter —
// deliberately not stats.Nodes, which counts only search-tree
// assignments.
func (s *streamSearcher) emitProduct(q *Query, eq *EqClasses, sols [][]value.ID, heads []int, out *instance.Relation) error {
	headIDs := make([]int32, len(q.Head))
	for i, term := range q.Head {
		if !term.IsConst {
			headIDs[i] = s.plan.classOf[eq.Find(term.Var)]
		}
	}
	pos := make([]int, len(heads))
	var emitted int64
	for changed := 0; changed >= 0; {
		for h := changed; h < len(heads); h++ {
			roots := s.plan.comps[heads[h]].headRoots
			for k, id := range roots {
				s.binding[id] = sols[heads[h]][pos[h]*len(roots)+k]
			}
		}
		emitted++
		if emitted&cancelCheckMask == 0 {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		t := make(instance.Tuple, len(q.Head))
		for i, term := range q.Head {
			if term.IsConst {
				t[i] = term.Const
				continue
			}
			t[i] = s.decodeID(s.binding[headIDs[i]])
		}
		out.MustInsert(t)
		// Advance the odometer; changed is the leftmost component whose
		// projection moved, or -1 once every combination is out.
		changed = len(heads) - 1
		for ; changed >= 0; changed-- {
			pos[changed]++
			if pos[changed]*len(s.plan.comps[heads[changed]].headRoots) < len(sols[heads[changed]]) {
				break
			}
			pos[changed] = 0
		}
	}
	return nil
}

// evalNaive is the reference evaluation: the naive backtracking join
// emitting the head tuple of every match.
func evalNaive(q *Query, d *instance.Database, out *instance.Relation) (EvalStats, error) {
	var stats EvalStats
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		return stats, nil
	}
	rels, _, err := resolveRelations(q, d)
	if err != nil {
		return stats, err
	}
	binding := naiveConstBindings(q, eq)
	err = naiveSearch(context.Background(), q, eq, rels, binding, &stats, func() bool {
		t := make(instance.Tuple, len(q.Head))
		for i, term := range q.Head {
			if term.IsConst {
				t[i] = term.Const
				continue
			}
			t[i] = binding[eq.Find(term.Var)]
		}
		// Scheme-checked insert guards against internal type errors.
		out.MustInsert(t)
		return true
	})
	return stats, err
}

// naiveConstBindings starts a naive binding environment (class
// representative -> value) with the constants of the equality list.
func naiveConstBindings(q *Query, eq *EqClasses) map[Var]value.Value {
	binding := make(map[Var]value.Value)
	for _, a := range q.Body {
		for _, v := range a.Vars {
			if c, ok := eq.Const(v); ok {
				binding[eq.Find(v)] = c
			}
		}
	}
	return binding
}

// naiveSearch is the reference backtracking join behind evalNaive and
// findAnswerNaive: match atoms against full relation scans, picking
// the unused atom with the most already-bound positions next (a greedy
// order that keeps chains and stars cheap, ties broken by body order).
// It calls match at every complete assignment, with binding holding
// it, and stops once match returns false.  The context is polled once
// every cancelCheckMask+1 nodes.
func naiveSearch(ctx context.Context, q *Query, eq *EqClasses, rels []*instance.Relation,
	binding map[Var]value.Value, stats *EvalStats, match func() bool) error {
	used := make([]bool, len(q.Body))
	pickNext := func() int {
		best, bestBound := -1, -1
		for i, a := range q.Body {
			if used[i] {
				continue
			}
			bound := 0
			for _, v := range a.Vars {
				if _, ok := binding[eq.Find(v)]; ok {
					bound++
				}
			}
			if bound > bestBound {
				best, bestBound = i, bound
			}
		}
		return best
	}
	stop := false
	var canceled error
	var recurse func(remaining int)
	recurse = func(remaining int) {
		if remaining == 0 {
			stop = !match()
			return
		}
		ai := pickNext()
		a := q.Body[ai]
		used[ai] = true
		defer func() { used[ai] = false }()
		for _, t := range rels[ai].Tuples() {
			if stop || canceled != nil {
				return
			}
			stats.Nodes++
			if stats.Nodes&cancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					canceled = err
					return
				}
			}
			var added []Var
			ok := true
			for p, v := range a.Vars {
				root := eq.Find(v)
				if bv, bound := binding[root]; bound {
					if bv != t[p] {
						ok = false
						break
					}
					continue
				}
				binding[root] = t[p]
				added = append(added, root)
			}
			if ok {
				recurse(remaining - 1)
			}
			for _, r := range added {
				delete(binding, r)
			}
		}
	}
	recurse(len(q.Body))
	return canceled
}

// NonEmpty reports whether q has at least one answer on d.
func NonEmpty(q *Query, d *instance.Database) (bool, error) {
	rel, err := Eval(q, d)
	if err != nil {
		return false, err
	}
	return rel.Len() > 0, nil
}

// HasAnswer reports whether evaluating q over d produces the tuple want.
// Unlike Eval it terminates as soon as the tuple is derived, which is the
// homomorphism test at the heart of containment checking.  The returned
// stats count search nodes visited.
func HasAnswer(q *Query, d *instance.Database, want instance.Tuple) (bool, EvalStats, error) {
	ok, _, stats, err := FindAnswerBinding(q, d, want)
	return ok, stats, err
}

// FindAnswerBinding is HasAnswer returning, on success, the witnessing
// variable binding (every body variable of q mapped to a database value).
// Containment uses it to extract explicit homomorphisms.
func FindAnswerBinding(q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	return FindAnswerBindingCtx(context.Background(), q, d, want)
}

// FindAnswerBindingCtx is FindAnswerBinding with cancellation via ctx.
// It runs the production search: the cost model's choice of the dense
// scan or the streamed pipeline, with parallel component search when
// the estimated work justifies it (adaptive.go).
func FindAnswerBindingCtx(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	return observeSearch(ctx, q, d, want, findAnswerAdaptive)
}

// FindAnswerBindingNaive is FindAnswerBindingCtx run on the naive
// reference search (findAnswerNaive).  It is the oracle the production
// search is differential-tested and benchmarked against, never a
// decision path.
func FindAnswerBindingNaive(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	return observeSearch(ctx, q, d, want, findAnswerNaive)
}

// searchFunc is one homomorphism search implementation.
type searchFunc func(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error)

// observeSearch validates the request, runs search, and is the obs
// reporting funnel for the homomorphism search: every invocation bumps
// the search counters and, with a sink installed, emits one search
// span — on success, cancellation, and validation failure alike — so
// exported totals reconcile exactly with the EvalStats callers
// accumulate.
func observeSearch(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple, search searchFunc) (bool, map[Var]value.Value, EvalStats, error) {
	o := obs.FromContext(ctx)
	start := o.Time()
	var (
		ok  bool
		w   map[Var]value.Value
		es  EvalStats
		err error
	)
	switch {
	case len(q.Head) != len(want):
		err = fmt.Errorf("cq: want arity %d, head arity %d", len(want), len(q.Head))
	case len(q.Body) == 0:
		err = fmt.Errorf("cq: empty body")
	default:
		ok, w, es, err = search(ctx, q, d, want)
	}
	if o != nil {
		o.C(obs.CSearches).Inc()
		o.C(obs.CSearchNodes).Add(es.Nodes)
		o.H(obs.HSearchNodes).Observe(es.Nodes)
		if o.SpansOn() {
			attrs := make([]obs.Attr, 0, 2+len(es.CompNodes))
			attrs = append(attrs,
				obs.I("nodes", es.Nodes),
				obs.B("found", ok))
			for i, n := range es.CompNodes {
				attrs = append(attrs, obs.I("comp_nodes_"+strconv.Itoa(i), n))
			}
			o.EmitSpan(ctx, obs.StageSearch, start, err, attrs...)
		}
	}
	return ok, w, es, err
}

// findAnswerNaive is the reference homomorphism search: the naive
// backtracking join with the head classes prebound to want, stopping
// at the first match.
func findAnswerNaive(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	var stats EvalStats
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		return false, nil, stats, nil
	}
	rels, _, err := resolveRelations(q, d)
	if err != nil {
		return false, nil, stats, err
	}
	binding := naiveConstBindings(q, eq)
	// Pre-bind head variables to the wanted values; constants must match.
	for i, term := range q.Head {
		if term.IsConst {
			if term.Const != want[i] {
				return false, nil, stats, nil
			}
			continue
		}
		root := eq.Find(term.Var)
		if bv, ok := binding[root]; ok {
			if bv != want[i] {
				return false, nil, stats, nil
			}
			continue
		}
		binding[root] = want[i]
	}
	var witness map[Var]value.Value
	err = naiveSearch(ctx, q, eq, rels, binding, &stats, func() bool {
		// Capture the successful binding, resolved per body variable
		// through its class representative; the unwind erases it.
		witness = make(map[Var]value.Value)
		for _, a := range q.Body {
			for _, v := range a.Vars {
				witness[v] = binding[eq.Find(v)]
			}
		}
		return false
	})
	if err != nil {
		return false, nil, stats, err
	}
	return witness != nil, witness, stats, nil
}
