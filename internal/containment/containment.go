// Package containment decides conjunctive query containment and
// equivalence — the Chandra–Merlin homomorphism test — both over all
// instances and over instances satisfying key/functional dependencies
// (via the chase), plus query minimization (core computation).
//
// q ⊑ q' (q contained in q') means q(d) ⊆ q'(d) for every database d; the
// paper's query equivalence is mutual containment.  The classical test:
// freeze q into its canonical database, evaluate q' over it, and look for
// q's frozen head among the answers.  Under dependencies, chase the
// canonical database first; a failing chase means q returns no answers on
// any dependency-satisfying database, so containment holds vacuously.
//
// Every check reports a Stats value accounting for the work performed.
// Stats values are combined only through Stats.Merge — numeric fields
// add, boolean fields OR — never by hand-picking fields; a reflection
// test asserts Merge covers every field, so adding a counter without
// extending Merge fails the suite.  On error (cancellation, timeout)
// the returned Stats still carries the partial work done, so callers
// summing Stats reconcile exactly with the obs metrics exported from
// the chase and search layers.
package containment

import (
	"context"
	"fmt"

	"keyedeq/internal/chase"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Stats describes the work a containment check did.
type Stats struct {
	// Nodes is the homomorphism search tree size.
	Nodes int64
	// Searches counts homomorphism search invocations (one per
	// containment direction that reaches the search, so ≤2 for an
	// equivalence check).
	Searches int
	// ChaseIterations counts chase passes (zero without dependencies).
	ChaseIterations int
	// ChaseMerges counts equality-class unions the chase performed.
	ChaseMerges int
	// ChaseRevisited counts tuples the semi-naive chase re-examined.
	ChaseRevisited int
	// ChaseFailed records that the chase detected unsatisfiability.
	ChaseFailed bool
}

// Merge folds other into s: numeric fields add, boolean fields OR.
// All Stats combination goes through Merge; a reflection test asserts
// it covers every field of Stats, so a counter added to the struct but
// not to Merge is caught by the suite instead of being silently
// dropped at merge points.
func (s *Stats) Merge(other Stats) {
	s.Nodes += other.Nodes
	s.Searches += other.Searches
	s.ChaseIterations += other.ChaseIterations
	s.ChaseMerges += other.ChaseMerges
	s.ChaseRevisited += other.ChaseRevisited
	s.ChaseFailed = s.ChaseFailed || other.ChaseFailed
}

// SearchStats returns the Stats of one completed homomorphism search
// invocation that visited nodes search-tree nodes.  Callers outside
// this package build Stats only through these constructors (or Merge);
// the mergeonly lint rule enforces it.
func SearchStats(nodes int64) Stats {
	return Stats{Nodes: nodes, Searches: 1}
}

// ChaseStats converts one chase run's counters into Stats, ready to be
// merged into a pair's books.
func ChaseStats(cs chase.Stats) Stats {
	return Stats{
		ChaseIterations: cs.Iterations,
		ChaseMerges:     cs.Merges,
		ChaseRevisited:  cs.Revisited,
	}
}

// FailedChaseStats returns the Stats of a containment decided vacuously
// because the chase proved the left query empty under the dependencies.
func FailedChaseStats() Stats {
	return Stats{ChaseFailed: true}
}

// Contained reports whether q1 ⊑ q2 over all instances of s.
func Contained(q1, q2 *cq.Query, s *schema.Schema) (bool, error) {
	ok, _, err := ContainedUnder(q1, q2, s, nil)
	return ok, err
}

// ContainedUnder reports whether q1 ⊑ q2 over all instances of s
// satisfying deps (single-relation EGDs, e.g. fd.KeyFDs(s)).
func ContainedUnder(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, Stats, error) {
	return ContainedUnderCtx(context.Background(), q1, q2, s, deps)
}

// ContainedUnderCtx is ContainedUnder with cancellation: both the chase
// and the homomorphism search poll ctx and abort with its error when it
// is done.
func ContainedUnderCtx(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, Stats, error) {
	ok, st, _, err := containedUnder(ctx, q1, q2, s, deps, cq.FindAnswerBindingCtx)
	return ok, st, err
}

// searchFunc is the homomorphism search containment runs on its
// canonical database: cq.FindAnswerBindingCtx in production, and
// cq.FindAnswerBindingNaive in the differential tests.
type searchFunc func(ctx context.Context, q *cq.Query, d *instance.Database, want instance.Tuple) (bool, map[cq.Var]value.Value, cq.EvalStats, error)

// witness is what a successful search found, with what translating it
// back to q1's terms needs: q1's frozen variable terms and the database
// value of every chased term.  It is empty (nil binding) when the
// search found nothing or the containment held vacuously.
type witness struct {
	binding map[cq.Var]value.Value
	vars    map[cq.Var]chase.Term
	valOf   map[chase.Term]value.Value
}

// containedUnder freezes q1 into its canonical database, chases it
// under deps, and runs search for q1's frozen head on q2.
//
//keyedeq:hot -- freeze-chase-search is the decision procedure every engine verdict runs
func containedUnder(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD, search searchFunc) (bool, Stats, witness, error) {
	var stats Stats
	if err := CheckComparable(q1, q2, s); err != nil {
		return false, stats, witness{}, err
	}
	o := obs.FromContext(ctx)
	// Freeze q1 into its canonical database.
	tb := chase.NewTableau(s)
	vars, err := chase.Freeze(tb, q1)
	if err != nil {
		return false, stats, witness{}, err
	}
	head, err := chase.HeadTerms(tb, q1, vars)
	if err != nil {
		return false, stats, witness{}, err
	}
	if len(deps) > 0 {
		// Record the chase's partial work even when it is cut short by
		// cancellation, so summed Stats reconcile with the obs counters
		// the chase emitted before aborting.  The span begins here, not
		// at function entry: the early-error returns above and the
		// no-deps path emit no freeze_chase span, so a start captured
		// up there would be a begun-and-never-ended span in the trace.
		chaseStart := o.Time()
		cs, cerr := tb.RunCtx(ctx, deps)
		stats.ChaseIterations = cs.Iterations
		stats.ChaseMerges = cs.Merges
		stats.ChaseRevisited = cs.Revisited
		stats.ChaseFailed = tb.Failed()
		if o.SpansOn() {
			o.EmitSpan(ctx, obs.StageFreezeChase, chaseStart, cerr,
				obs.I("iterations", int64(cs.Iterations)),
				obs.I("merges", int64(cs.Merges)),
				obs.I("revisited", int64(cs.Revisited)),
				obs.B("failed", tb.Failed()))
		}
		if cerr != nil {
			return false, stats, witness{}, cerr
		}
	}
	if tb.Failed() {
		// q1 is empty on every deps-satisfying database.  Freezing alone
		// can fail (query equalities forcing distinct constants), so set
		// the flag here too, not only on the chase path above.
		stats.ChaseFailed = true
		return true, stats, witness{}, nil
	}
	var alloc value.Allocator
	for _, c := range q1.Constants() {
		alloc.Reserve(c)
	}
	for _, c := range q2.Constants() {
		alloc.Reserve(c)
	}
	db, valOf, err := tb.ToDatabase(&alloc)
	if err != nil {
		return false, stats, witness{}, err
	}
	want := make(instance.Tuple, len(head))
	for i, h := range head {
		want[i] = valOf[h]
	}
	ok, binding, es, err := search(ctx, q2, db, want)
	stats.Nodes = es.Nodes
	stats.Searches = 1
	return ok, stats, witness{binding: binding, vars: vars, valOf: valOf}, err
}

// Equivalent reports whether q1 ≡ q2 over all instances of s.
func Equivalent(q1, q2 *cq.Query, s *schema.Schema) (bool, error) {
	ok, _, err := EquivalentUnder(q1, q2, s, nil)
	return ok, err
}

// EquivalentUnder reports mutual containment under deps.
func EquivalentUnder(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, Stats, error) {
	return EquivalentUnderCtx(context.Background(), q1, q2, s, deps)
}

// EquivalentUnderCtx is EquivalentUnder with cancellation via ctx.
func EquivalentUnderCtx(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, Stats, error) {
	return equivalentUnder(ctx, q1, q2, s, deps, cq.FindAnswerBindingCtx)
}

// equivalentUnder decides mutual containment with search.
func equivalentUnder(ctx context.Context, q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD, search searchFunc) (bool, Stats, error) {
	ok, st1, _, err := containedUnder(ctx, q1, q2, s, deps, search)
	if err != nil || !ok {
		return false, st1, err
	}
	ok, st2, _, err := containedUnder(ctx, q2, q1, s, deps, search)
	st1.Merge(st2)
	return ok, st1, err
}

// CheckComparable validates both queries against s and requires equal
// head types — the precondition every containment test shares.  The
// batch engine calls it once per pair before dispatching workers.
func CheckComparable(q1, q2 *cq.Query, s *schema.Schema) error {
	if err := q1.Validate(s); err != nil {
		return fmt.Errorf("containment: left query: %v", err)
	}
	if err := q2.Validate(s); err != nil {
		return fmt.Errorf("containment: right query: %v", err)
	}
	t1, err := q1.HeadType(s)
	if err != nil {
		return err
	}
	t2, err := q2.HeadType(s)
	if err != nil {
		return err
	}
	if len(t1) != len(t2) {
		return fmt.Errorf("containment: arity %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			return fmt.Errorf("containment: head position %d has type %v vs %v", i, t1[i], t2[i])
		}
	}
	return nil
}

// Minimize computes a core of q over s: an equivalent query with a
// minimal set of body atoms, obtained by repeatedly deleting atoms whose
// deletion preserves equivalence.  Deps, when non-nil, minimizes under the
// dependencies instead.
func Minimize(q *cq.Query, s *schema.Schema, deps []fd.FD) (*cq.Query, error) {
	if err := q.Validate(s); err != nil {
		return nil, err
	}
	cur := q.Clone()
	if len(deps) > 0 {
		// Make dependency-forced equalities explicit first, so that
		// atom removal can remap head variables through them.
		chased, unsat, err := chase.ChaseQuery(s, deps, q)
		if err != nil {
			return nil, err
		}
		if !unsat {
			cur = chased
		}
	}
	for {
		removed := false
		for i := 0; i < len(cur.Body); i++ {
			if len(cur.Body) == 1 {
				break
			}
			cand, ok := removeAtom(cur, i)
			if !ok {
				continue
			}
			if err := cand.Validate(s); err != nil {
				continue
			}
			eq, _, err := EquivalentUnder(cand, cur, s, deps)
			if err != nil {
				return nil, err
			}
			if eq {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			return cur, nil
		}
	}
}

// removeAtom builds q without body atom i, remapping head variables and
// equalities so the equality classes restricted to the remaining
// variables are preserved.  It reports ok=false when a head variable's
// class has no remaining member (the atom is not removable).
func removeAtom(q *cq.Query, i int) (*cq.Query, bool) {
	eq := cq.NewEqClasses(q)
	remaining := make(map[cq.Var]bool)
	out := &cq.Query{HeadRel: q.HeadRel}
	for j, a := range q.Body {
		if j == i {
			continue
		}
		out.Body = append(out.Body, cq.Atom{Rel: a.Rel, Vars: append([]cq.Var(nil), a.Vars...)})
		for _, v := range a.Vars {
			remaining[v] = true
		}
	}
	// Group remaining variables by class.
	classes := make(map[cq.Var][]cq.Var)
	for _, a := range q.Body {
		for _, v := range a.Vars {
			if remaining[v] {
				root := eq.Find(v)
				classes[root] = append(classes[root], v)
			}
		}
	}
	// Head terms: map each variable to a remaining member of its class.
	for _, t := range q.Head {
		if t.IsConst {
			out.Head = append(out.Head, t)
			continue
		}
		members := classes[eq.Find(t.Var)]
		if len(members) == 0 {
			return nil, false
		}
		out.Head = append(out.Head, cq.Term{Var: members[0]})
	}
	// Equalities: chain the remaining members of each class, and re-bind
	// class constants.
	for root, members := range classes {
		for k := 1; k < len(members); k++ {
			out.Eqs = append(out.Eqs, cq.Equality{Left: members[0], Right: cq.Term{Var: members[k]}})
		}
		if c, ok := eq.Const(root); ok {
			out.Eqs = append(out.Eqs, cq.Equality{Left: members[0], Right: cq.C(c)})
		}
	}
	return out, true
}
