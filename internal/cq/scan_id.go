package cq

import (
	"context"
	"sync"

	"keyedeq/internal/instance"
	"keyedeq/internal/value"
)

// This file is the dense scan: the adaptive search's no-plan arm.  It
// mirrors findAnswerNaive (eval.go) operation for operation — dynamic
// most-bound-first atom picking over full relation scans, the same
// node accounting and masked cancellation polling — but binds values
// into flat slices indexed by densely numbered equality classes
// instead of a map keyed by variable names.  It deliberately does NOT
// freeze the database: on workloads where every relation fits under
// the plan's scan threshold the interning pass would cost more than
// the whole search, and a surface value compares in one struct
// comparison anyway.  A wanted value absent from the database simply
// never matches any scanned tuple, exactly as in the naive search —
// no ghost-ID machinery needed.  The prologue is kept map-free (class
// numbering and prebinding run over small linear-scanned slices)
// because on tiny canonical databases the whole search is a handful
// of nodes and setup cost is the race.  Differential tests pin this
// scan to the naive oracle bit-for-bit: verdicts, EvalStats, and
// witnesses.

// scanSearcher carries the state of one dense scan: flat
// class-indexed bindings plus the per-atom class layout of the
// dynamic order.  Searchers are pooled: on tiny canonical databases
// the search itself is a handful of nodes, so the prologue's buffer
// allocations would otherwise dominate the wall time.
type scanSearcher struct {
	ctx     context.Context
	q       *Query
	eq      *EqClasses
	binding []value.Value
	bound   []bool
	stats   EvalStats
	// canceled latches the context error the moment a poll observes it.
	canceled error
	// addedStack records newly bound class ids in binding order,
	// unwound by truncation to a caller's mark.
	addedStack []int32
	// roots holds the dense class id of each atom position; used marks
	// atoms already placed on the current search path.
	roots [][]int32
	used  []bool
	// rows holds each atom's candidate tuples, in the relation's
	// canonical order — the same order the naive search scans.
	rows [][]instance.Tuple
	// classRoots maps dense class id back to the class representative;
	// classIndex linear-scans it, which beats a map at body-atom scale.
	classRoots []Var
	found      bool
	witness    map[Var]value.Value
	// ints and bools back the int32 and bool slices above across
	// reuses; they only ever grow.
	ints  []int32
	bools []bool
}

// scanPool recycles searcher state across searches.  Only the buffer
// capacity survives a round trip: acquire re-slices and zeroes what
// the next search reads, and release drops every reference to caller
// data so the pool cannot retain a database or query.
var scanPool = sync.Pool{New: func() any { return new(scanSearcher) }}

// release returns the searcher to the pool, dropping data references.
func (s *scanSearcher) release() {
	s.ctx, s.q, s.eq = nil, nil, nil
	s.canceled, s.witness = nil, nil
	clear(s.rows)
	scanPool.Put(s)
}

// classIndex resolves a class representative to its dense id, or -1.
func (s *scanSearcher) classIndex(root Var) int {
	for ci, cr := range s.classRoots {
		if cr == root {
			return ci
		}
	}
	return -1
}

// pickNext chooses the unused atom with the most already-bound
// positions, breaking ties by original body order — the naive
// search's dynamic greedy order, verbatim.
func (s *scanSearcher) pickNext() int {
	best, bestBound := -1, -1
	for i, rts := range s.roots {
		if s.used[i] {
			continue
		}
		bound := 0
		for _, id := range rts {
			if s.bound[id] {
				bound++
			}
		}
		if bound > bestBound {
			best, bestBound = i, bound
		}
	}
	return best
}

// unbindTo unwinds every binding pushed since the caller's mark.
func (s *scanSearcher) unbindTo(mark int) {
	for _, id := range s.addedStack[mark:] {
		s.bound[id] = false
	}
	s.addedStack = s.addedStack[:mark]
}

// countNode advances the node counter under the streamed searcher's
// polling contract (see streamSearcher.countNode).
func (s *scanSearcher) countNode() bool {
	if s.canceled != nil {
		return false
	}
	s.stats.Nodes++
	if s.stats.Nodes&cancelCheckMask == 0 {
		if err := s.ctx.Err(); err != nil {
			s.canceled = err
			return false
		}
	}
	return true
}

// run extends the current partial match by one atom, scanning its
// relation's rows in canonical order.
func (s *scanSearcher) run(remaining int) {
	if remaining == 0 {
		s.found = true
		// Capture the successful binding at the leaf, per body variable
		// through its class representative, exactly as the naive search
		// does — the unwind below erases it.
		s.witness = make(map[Var]value.Value)
		for _, a := range s.q.Body {
			for _, v := range a.Vars {
				s.witness[v] = s.binding[s.classIndex(s.eq.Find(v))]
			}
		}
		return
	}
	ai := s.pickNext()
	rts := s.roots[ai]
	s.used[ai] = true
	for _, row := range s.rows[ai] {
		if s.found || s.canceled != nil {
			return
		}
		if !s.countNode() {
			return
		}
		mark := len(s.addedStack)
		ok := true
		for p, id := range rts {
			if s.bound[id] {
				if s.binding[id] != row[p] {
					ok = false
					break
				}
				continue
			}
			s.binding[id] = row[p]
			s.bound[id] = true
			s.addedStack = append(s.addedStack, id)
		}
		if ok {
			s.run(remaining - 1)
		}
		s.unbindTo(mark)
	}
	s.used[ai] = false
}

// scanIDCore runs the dense scan over pre-resolved relations.
//
//keyedeq:hot -- the adaptive default's small-instance arm: every containment check on tiny canonical databases lands here
func scanIDCore(ctx context.Context, q *Query, want instance.Tuple, eq *EqClasses, rels []*instance.Relation) (bool, map[Var]value.Value, EvalStats, error) {
	// Number the body's equality classes densely, exactly as buildPlan
	// does, so bindings live in flat slices.  One int32 block backs the
	// per-atom layouts and the unwind stack; all buffers come from the
	// pooled searcher and only grow when a query outsizes what a prior
	// search left behind.
	total := 0
	for _, a := range q.Body {
		total += len(a.Vars)
	}
	s := scanPool.Get().(*scanSearcher)
	defer s.release()
	s.ctx, s.q, s.eq = ctx, q, eq
	s.stats = EvalStats{}
	s.found = false
	if cap(s.ints) < 2*total {
		s.ints = make([]int32, 2*total)
	}
	ints := s.ints[:2*total]
	backing := ints[:total]
	if cap(s.roots) < len(q.Body) {
		s.roots = make([][]int32, len(q.Body))
		s.rows = make([][]instance.Tuple, len(q.Body))
	}
	roots := s.roots[:len(q.Body)]
	classRoots := s.classRoots[:0]
	for i, a := range q.Body {
		roots[i], backing = backing[:len(a.Vars):len(a.Vars)], backing[len(a.Vars):]
		for p, v := range a.Vars {
			root := eq.Find(v)
			id := -1
			for ci, cr := range classRoots {
				if cr == root {
					id = ci
					break
				}
			}
			if id < 0 {
				id = len(classRoots)
				classRoots = append(classRoots, root)
			}
			roots[i][p] = int32(id)
		}
	}
	numClasses := len(classRoots)
	if cap(s.bools) < numClasses+len(q.Body) {
		s.bools = make([]bool, numClasses+len(q.Body))
	}
	bools := s.bools[:numClasses+len(q.Body)]
	for i := range bools {
		bools[i] = false
	}
	if cap(s.binding) < numClasses {
		s.binding = make([]value.Value, numClasses)
	}
	s.binding = s.binding[:numClasses]
	s.bound = bools[:numClasses:numClasses]
	s.addedStack = ints[total : total : 2*total]
	s.roots = roots
	s.used = bools[numClasses:]
	s.rows = s.rows[:len(q.Body)]
	s.classRoots = classRoots
	// Prebind constant-bound classes, then the wanted head values, in
	// the naive search's order: a constant conflicting with its head
	// slot, or two head slots disagreeing on one class, is an early
	// miss before any node is counted.
	for ci, root := range classRoots {
		if c, ok := eq.Const(root); ok {
			s.binding[ci] = c
			s.bound[ci] = true
		}
	}
	// Head classes with no body occurrence still need conflict checks
	// across head slots; they are tracked off to the side (almost
	// always empty) since no atom will ever read them.
	var exRoots []Var
	var exVals []value.Value
	for i, term := range q.Head {
		if term.IsConst {
			if term.Const != want[i] {
				return false, nil, s.stats, nil
			}
			continue
		}
		root := eq.Find(term.Var)
		if ci := s.classIndex(root); ci >= 0 {
			if s.bound[ci] {
				if s.binding[ci] != want[i] {
					return false, nil, s.stats, nil
				}
				continue
			}
			s.binding[ci] = want[i]
			s.bound[ci] = true
			continue
		}
		matched := false
		for xi, xr := range exRoots {
			if xr == root {
				if exVals[xi] != want[i] {
					return false, nil, s.stats, nil
				}
				matched = true
				break
			}
		}
		if !matched {
			exRoots = append(exRoots, root)
			exVals = append(exVals, want[i])
		}
	}
	for i, r := range rels {
		s.rows[i] = r.Tuples()
	}
	s.run(len(q.Body))
	if s.canceled != nil {
		return false, nil, s.stats, s.canceled
	}
	return s.found, s.witness, s.stats, nil
}
