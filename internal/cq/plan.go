package cq

import (
	"fmt"

	"keyedeq/internal/instance"
)

// This file compiles a query body into a search plan for the indexed
// homomorphism search (search.go).  A plan fixes, per connected component
// of the body's join graph, a static atom order chosen greedily by a
// most-constrained-first heuristic, and records for every atom which
// positions are already bound when the atom is matched — those positions
// become the key of a per-relation hash index, so matching an atom costs
// one bucket lookup instead of a scan over the whole relation.
//
// Equality classes are numbered densely at plan time: the search binds
// values in flat slices indexed by class id, so the hot path does no
// string hashing at all.

// smallRelScanThreshold is the relation cardinality at or below which a
// step scans instead of probing a hash index: building the bucket map
// costs one allocation per tuple, which a scan of that few tuples beats.
const smallRelScanThreshold = 8

// planStep is one atom of the compiled matching order.
type planStep struct {
	// atom indexes q.Body.
	atom int
	// rel is the resolved relation instance the atom matches against.
	rel *instance.Relation
	// relIdx is rel's index in the database's schema order, which is
	// also its index among the frozen (interned) relation views — the
	// streamed search addresses relations by it.
	relIdx int
	// roots holds the class id of each position's placeholder variable.
	roots []int32
	// keyPos lists the positions whose class is bound before this step
	// runs (by a constant, a pre-bound head class, or an earlier step).
	// They form the hash-index key for this step; the remaining
	// positions bind or check during matching.
	keyPos []int
	// indexSlot identifies the shared hash index this step probes
	// (steps matching the same relation on the same positions share
	// one), or -1 when the step has no bound positions and scans.
	indexSlot int
}

// planComponent is one connected component of the join graph: atoms
// linked (transitively) by a shared unbound equality class.  Components
// share no unbound classes, so each is searched independently —
// backtracking inside one component can never multiply another's.
type planComponent struct {
	steps []planStep
	// headRoots lists, in head order, the class ids this component
	// determines among the query's head variables (empty for components
	// the head never mentions — those only need a non-emptiness check
	// when enumerating answers).
	headRoots []int32
}

// searchPlan is the compiled form of one homomorphism search over a
// fixed query and database.
type searchPlan struct {
	comps []planComponent
	// classOf numbers the equality-class representatives appearing in
	// the body, densely from 0.
	classOf    map[Var]int32
	numClasses int
	// numSlots is the number of distinct (relation, key positions)
	// hash indexes the plan's steps probe.
	numSlots int
}

// resolveRelations maps each body atom to its relation instance and
// its schema-order index, rejecting unknown relations and arity
// mismatches.
func resolveRelations(q *Query, d *instance.Database) ([]*instance.Relation, []int, error) {
	rels := make([]*instance.Relation, len(q.Body))
	idxs := make([]int, len(q.Body))
	for i, a := range q.Body {
		ri := d.Schema.RelationIndex(a.Rel)
		if ri < 0 {
			return nil, nil, fmt.Errorf("cq: no relation %q in database", a.Rel)
		}
		r := d.Relations[ri]
		if r.Scheme != nil && len(a.Vars) != r.Scheme.Arity() {
			return nil, nil, fmt.Errorf("cq: %s arity mismatch", a.Rel)
		}
		rels[i] = r
		idxs[i] = ri
	}
	return rels, idxs, nil
}

// ufFind is the path-halving find of buildPlan's union-find over atoms.
func ufFind(parent []int, i int) int {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// equalPos reports whether two key-position lists are identical.
func equalPos(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, p := range a {
		if p != b[i] {
			return false
		}
	}
	return true
}

// buildPlan compiles the plan for q over the resolved relations.  eq must
// be q's equality classes; pres holds the class representatives whose
// value is fixed before the search starts (constant-bound classes, plus
// the head classes when searching for a specific answer tuple).
//
// Plan compilation is the adaptive runtime's cold-path setup cost, paid
// once per (frozen database, query) and amortized by the prepared-plan
// cache — but on single-shot containment checks there is nothing to
// amortize against, so the compile itself stays lean: two arenas (one
// int, one bool) back every scratch table and every step's key-position
// list, and index-slot sharing compares position lists directly instead
// of building signature strings.
func buildPlan(q *Query, rels []*instance.Relation, relIdxs []int, eq *EqClasses, pres []prebinding) *searchPlan {
	n := len(q.Body)
	plan := &searchPlan{classOf: make(map[Var]int32, 2*n)}
	total := 0
	for _, a := range q.Body {
		total += len(a.Vars)
	}
	backing := make([]int32, 2*total)
	roots := make([][]int32, n)
	for i, a := range q.Body {
		roots[i], backing = backing[:len(a.Vars):len(a.Vars)], backing[len(a.Vars):]
		for p, v := range a.Vars {
			root := eq.Find(v)
			id, ok := plan.classOf[root]
			if !ok {
				id = int32(plan.numClasses)
				plan.classOf[root] = id
				plan.numClasses++
			}
			roots[i][p] = id
		}
	}
	nc := plan.numClasses
	// Bool arena: the prebound set, the head-dedup set, the ordering
	// bound scratch (rewritten whole per component by a copy), and one
	// placed flag per atom (carved disjointly per component).
	bools := make([]bool, 3*nc+n)
	preboundID := bools[:nc:nc]
	seen := bools[nc : 2*nc : 2*nc]
	boundScratch := bools[2*nc : 3*nc : 3*nc]
	placedArena := bools[3*nc:]
	for _, pb := range pres {
		if id, ok := plan.classOf[pb.root]; ok {
			preboundID[id] = true
		}
	}

	// Union-find over atoms: two atoms connect when they share an
	// unbound class.  Classes fixed before the search carry no join
	// constraint between atoms — each atom filters against the fixed
	// value independently.  The int arena backs the union-find, the
	// component grouping (CSR: comp ci's atoms are atomList
	// [compStart[ci]:compStart[ci+1]], in body order), and the steps'
	// key-position lists.
	ints := make([]int, 5*n+nc+total+1)
	parent, ints := ints[:n:n], ints[n:]
	for i := range parent {
		parent[i] = i
	}
	firstAtomOf, ints := ints[:nc:nc], ints[nc:]
	for i := range firstAtomOf {
		firstAtomOf[i] = -1
	}
	for i := range q.Body {
		for _, id := range roots[i] {
			if preboundID[id] {
				continue
			}
			if j := firstAtomOf[id]; j >= 0 {
				ri, rj := ufFind(parent, i), ufFind(parent, j)
				if ri != rj {
					parent[ri] = rj
				}
			} else {
				firstAtomOf[id] = i
			}
		}
	}

	// Group atoms into components ordered by first appearance: number
	// the component roots, count, prefix-sum, place.
	compOf, ints := ints[:n:n], ints[n:]
	for i := range compOf {
		compOf[i] = -1
	}
	ncomps := 0
	for i := 0; i < n; i++ {
		if root := ufFind(parent, i); compOf[root] < 0 {
			compOf[root] = ncomps
			ncomps++
		}
	}
	compStart, ints := ints[:ncomps+1:ncomps+1], ints[ncomps+1:]
	for i := 0; i < n; i++ {
		compStart[compOf[ufFind(parent, i)]+1]++
	}
	for ci := 0; ci < ncomps; ci++ {
		compStart[ci+1] += compStart[ci]
	}
	atomList, ints := ints[:n:n], ints[n:]
	next, ints := ints[:ncomps:ncomps], ints[ncomps:]
	copy(next, compStart[:ncomps])
	for i := 0; i < n; i++ {
		ci := compOf[ufFind(parent, i)]
		atomList[next[ci]] = i
		next[ci]++
	}
	keyArena := ints

	plan.comps = make([]planComponent, ncomps)
	stepsArena := make([]planStep, n)
	rootComp := backing[:nc]
	for i := range rootComp {
		rootComp[i] = -1
	}
	for ci := 0; ci < ncomps; ci++ {
		atoms := atomList[compStart[ci]:compStart[ci+1]]
		plan.comps[ci], keyArena = orderComponent(atoms, rels, relIdxs, roots, preboundID,
			boundScratch, placedArena[compStart[ci]:compStart[ci+1]],
			stepsArena[compStart[ci]:compStart[ci]:compStart[ci+1]], keyArena)
		for _, ai := range atoms {
			for _, id := range roots[ai] {
				if !preboundID[id] {
					rootComp[id] = int32(ci)
				}
			}
		}
	}

	// Steps matching the same relation on the same key positions share
	// one hash index; resolve the slot assignment now so the search's
	// probe path is a slice access.  Relations at or under
	// smallRelScanThreshold tuples scan instead — walking a handful of
	// tuples is cheaper than building a bucket map for them.
	slotSteps := make([]*planStep, 0, n)
	for ci := range plan.comps {
		for si := range plan.comps[ci].steps {
			st := &plan.comps[ci].steps[si]
			if len(st.keyPos) == 0 || st.rel.Len() <= smallRelScanThreshold {
				st.indexSlot = -1
				continue
			}
			st.indexSlot = -1
			for slot, have := range slotSteps {
				if have.rel == st.rel && equalPos(have.keyPos, st.keyPos) {
					st.indexSlot = slot
					break
				}
			}
			if st.indexSlot < 0 {
				st.indexSlot = len(slotSteps)
				slotSteps = append(slotSteps, st)
			}
		}
	}
	plan.numSlots = len(slotSteps)

	// Assign head classes to the component that determines them.
	for _, t := range q.Head {
		if t.IsConst {
			continue
		}
		id, ok := plan.classOf[eq.Find(t.Var)]
		if !ok || preboundID[id] || seen[id] {
			// A head variable always occurs in the body, so its class is
			// either numbered or prebound; be defensive and skip rather
			// than panic on unvalidated queries.
			continue
		}
		seen[id] = true
		if ci := rootComp[id]; ci >= 0 {
			c := &plan.comps[ci]
			c.headRoots = append(c.headRoots, id)
		}
	}
	return plan
}

// orderComponent fixes the matching order of one component's atoms:
// repeatedly pick the unplaced atom with the most bound positions,
// breaking ties by smaller relation cardinality, then original body
// order.  Each step records its bound positions as the index key.
// bound is scratch rewritten whole by the preboundID copy; placed and
// steps are this component's disjoint carvings of the caller's arenas;
// keyArena backs the steps' key-position lists, with the unconsumed
// tail returned.
func orderComponent(atoms []int, rels []*instance.Relation, relIdxs []int, roots [][]int32, preboundID []bool,
	bound, placed []bool, steps []planStep, keyArena []int) (planComponent, []int) {
	copy(bound, preboundID)
	for k := range placed {
		placed[k] = false
	}
	comp := planComponent{steps: steps}
	for len(comp.steps) < len(atoms) {
		best, bestK, bestBound, bestCard := -1, -1, -1, 0
		for k, ai := range atoms {
			if placed[k] {
				continue
			}
			b := 0
			for _, id := range roots[ai] {
				if bound[id] {
					b++
				}
			}
			card := rels[ai].Len()
			if b > bestBound || (b == bestBound && card < bestCard) {
				best, bestK, bestBound, bestCard = ai, k, b, card
			}
		}
		placed[bestK] = true
		step := planStep{atom: best, rel: rels[best], relIdx: relIdxs[best], roots: roots[best]}
		nk := 0
		for _, id := range roots[best] {
			if bound[id] {
				nk++
			}
		}
		step.keyPos, keyArena = keyArena[:0:nk], keyArena[nk:]
		for p, id := range roots[best] {
			if bound[id] {
				step.keyPos = append(step.keyPos, p)
			}
		}
		for _, id := range roots[best] {
			bound[id] = true
		}
		comp.steps = append(comp.steps, step)
	}
	return comp, keyArena
}
