package cq

import (
	"context"

	"keyedeq/internal/instance"
	"keyedeq/internal/obs"
	"keyedeq/internal/value"
)

// This file is the streamed homomorphism-search runtime: the plan's
// steps become a pipeline of composable streaming operators over the
// database's frozen (interned) view —
//
//   - scan: positional cursor over a FrozenRelation's rows;
//   - indexed lookup: cursor over the row list of a pre-sized hash
//     index bucket keyed by the step's bound positions;
//   - join/selection: tryBind, which extends the dense class binding
//     with a candidate row (hash-join probe on the key positions plus
//     residual equality selection on repeated classes) and unwinds by
//     mark on backtrack;
//   - projection: the witness decode at the return boundary (or, for
//     Eval, the head-tuple decode at the emit boundary), where IDs turn
//     back into surface values.
//
// Each pipeline depth is one open cursor; the driver pulls the next
// candidate from the deepest cursor, so item A's depth-3 work never
// waits on item B's depth-1 work and nothing is materialized beyond
// the indexes.  The driver is resumable: after a full match it
// continues from the deepest cursor, so the same loop serves the
// first-match search and full enumeration.  The operator contracts are
// pinned in DESIGN.md §15.
//
// Candidates come out in row order (hash buckets are filled in row
// order, and frozen rows follow the relation's sorted tuple order),
// and a node is counted for every candidate pulled, before tryBind,
// under the cancelCheckMask polling contract — so EvalStats is a
// deterministic function of the plan and the data.  The adaptive
// dispatcher (adaptive.go) is differential-tested against the naive
// oracle (eval.go) on verdicts and witnesses.

// streamIndex is one pre-sized hash index shared by the plan steps of
// an index slot.  A key resolves to a dense bucket id — single-position
// keys hash the value.ID itself, wider keys the encoded byte-string
// via the compiler's zero-alloc inline string(bytes) probe — and the
// bucket's row list lives in one flat CSR layout: bucket b is
// rows[starts[b]:starts[b+1]], filled in row order.  The maps are
// pre-sized to the relation's row count (the upper bound on distinct
// keys), so the build never rehashes, and the flat row array replaces
// the per-key append chains a map of slices would grow one realloc at
// a time.
type streamIndex struct {
	built  bool
	oneIDs map[value.ID]int32
	keyIDs map[string]int32
	starts []int32
	rows   []int32
}

// bucket returns bucket bid's row list, in row order.
func (idx *streamIndex) bucket(bid int32) []int32 {
	return idx.rows[idx.starts[bid]:idx.starts[bid+1]]
}

// stepCursor is one open operator of the pipeline: a positional scan
// (indexed == false, positions [pos, n)) or an indexed lookup over a
// bucket's row list.
type stepCursor struct {
	rows    []int32
	pos     int
	n       int
	indexed bool
}

// streamSearcher carries the mutable state of one streamed search:
// dense class bindings over a frozen view, the addedStack unwind
// discipline, ghost IDs for query values the frozen view never
// interned (idcore.go), the hash indexes, and the cursor stack of the
// pipeline driver.
type streamSearcher struct {
	ctx      context.Context
	fz       *instance.Frozen
	binding  []value.ID
	bound    []bool
	stats    *EvalStats
	canceled error
	// addedStack records newly bound class ids in binding order,
	// unwound by truncation to a caller's mark.
	addedStack []int32
	// ghostVals holds values referenced by the query (constants, wanted
	// head values) that the frozen view never interned.  Each gets a
	// per-search "ghost" ID from the top of the ID space — distinct
	// from every real ID, so a ghost-bound class filters candidates
	// exactly like a value absent from a hash index: every comparison
	// misses, and the search explores the same nodes.
	ghostVals []value.Value
	plan      *searchPlan
	idx       []streamIndex
	// keyBuf is the reusable scratch for wide-key encoding.
	keyBuf []byte
	// cursors and marks hold one open cursor and one addedStack mark
	// per pipeline depth, sized to the widest component.
	cursors []stepCursor
	marks   []int
}

func newStreamSearcher(ctx context.Context, plan *searchPlan, fz *instance.Frozen, stats *EvalStats) *streamSearcher {
	maxSteps := 0
	for ci := range plan.comps {
		if n := len(plan.comps[ci].steps); n > maxSteps {
			maxSteps = n
		}
	}
	return &streamSearcher{
		ctx:     ctx,
		fz:      fz,
		binding: make([]value.ID, plan.numClasses),
		bound:   make([]bool, plan.numClasses),
		stats:   stats,
		plan:    plan,
		idx:     make([]streamIndex, plan.numSlots),
		cursors: make([]stepCursor, maxSteps),
		marks:   make([]int, maxSteps),
	}
}

// appendIDKey encodes one ID into the wide-key scratch buffer.
func appendIDKey(b []byte, id value.ID) []byte {
	return append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

// keyPosSig encodes a step's key-position list as the frozen view's
// index-memo signature.  Positions are relation arities, so one byte
// each is plenty.
func keyPosSig(keyPos []int) string {
	b := make([]byte, len(keyPos))
	for i, p := range keyPos {
		b[i] = byte(p)
	}
	return string(b)
}

// buildIndex resolves the step's hash index, memoized on the frozen
// relation: the index is a pure function of the rows and the key
// positions, so every search against one frozen view — including the
// parallel component workers and entirely separate queries — shares a
// single build.  On a miss the fill runs in row order, so bucket row
// lists enumerate candidates in row order, and it honors the node
// loop's masked polling contract; on cancellation the partial index is
// discarded, not memoized, and the next searcher builds afresh.
func (s *streamSearcher) buildIndex(st *planStep, fr *instance.FrozenRelation) bool {
	v, ok := fr.IndexMemo(keyPosSig(st.keyPos), func() (any, bool) {
		if idx := s.fillIndex(st, fr); idx != nil {
			return idx, true
		}
		return nil, false
	})
	if !ok {
		return false
	}
	s.idx[st.indexSlot] = *v.(*streamIndex)
	return true
}

// fillIndex builds the step's hash index from scratch; nil means the
// fill was cancelled mid-scan.  The keying pass assigns every row a
// dense bucket id (first-occurrence order) and the placement pass
// prefix-sums the bucket sizes and drops each row into its bucket's
// next slot — ascending row order in, ascending row order per bucket
// out, the enumeration order EvalStats is pinned to.
func (s *streamSearcher) fillIndex(st *planStep, fr *instance.FrozenRelation) *streamIndex {
	n := fr.NumRows()
	idx := streamIndex{built: true}
	rowBid := make([]int32, n)
	var nBuckets int32
	if len(st.keyPos) == 1 {
		p := st.keyPos[0]
		oneIDs := make(map[value.ID]int32, n)
		for i := 0; i < n; i++ {
			if i&cancelCheckMask == cancelCheckMask {
				if err := s.ctx.Err(); err != nil {
					s.canceled = err
					return nil
				}
			}
			id := fr.Cell(i, p)
			bid, ok := oneIDs[id]
			if !ok {
				bid = nBuckets
				nBuckets++
				oneIDs[id] = bid
			}
			rowBid[i] = bid
		}
		idx.oneIDs = oneIDs
	} else {
		keyIDs := make(map[string]int32, n)
		for i := 0; i < n; i++ {
			if i&cancelCheckMask == cancelCheckMask {
				if err := s.ctx.Err(); err != nil {
					s.canceled = err
					return nil
				}
			}
			s.keyBuf = s.keyBuf[:0]
			for _, p := range st.keyPos {
				s.keyBuf = appendIDKey(s.keyBuf, fr.Cell(i, p))
			}
			bid, ok := keyIDs[string(s.keyBuf)]
			if !ok {
				bid = nBuckets
				nBuckets++
				keyIDs[string(s.keyBuf)] = bid
			}
			rowBid[i] = bid
		}
		idx.keyIDs = keyIDs
	}
	starts := make([]int32, nBuckets+1)
	for _, bid := range rowBid {
		starts[bid+1]++
	}
	for b := int32(0); b < nBuckets; b++ {
		starts[b+1] += starts[b]
	}
	rows := make([]int32, n)
	next := make([]int32, nBuckets)
	copy(next, starts[:nBuckets])
	for i, bid := range rowBid {
		rows[next[bid]] = int32(i)
		next[bid]++
	}
	idx.starts, idx.rows = starts, rows
	return &idx
}

// openCursor opens the pipeline operator for steps[depth] under the
// current binding: a positional scan when the step has no index slot,
// otherwise an indexed lookup over the (possibly empty) bucket of the
// step's key.  It returns false only on cancellation (during a lazy
// index build).
func (s *streamSearcher) openCursor(steps []planStep, depth int) bool {
	st := &steps[depth]
	c := &s.cursors[depth]
	fr := s.fz.Relations[st.relIdx]
	if st.indexSlot < 0 {
		c.rows, c.pos, c.n, c.indexed = nil, 0, fr.NumRows(), false
		return true
	}
	if !s.idx[st.indexSlot].built && !s.buildIndex(st, fr) {
		return false
	}
	idx := &s.idx[st.indexSlot]
	var rows []int32
	if idx.oneIDs != nil {
		if bid, ok := idx.oneIDs[s.binding[st.roots[st.keyPos[0]]]]; ok {
			rows = idx.bucket(bid)
		}
	} else {
		s.keyBuf = s.keyBuf[:0]
		for _, p := range st.keyPos {
			s.keyBuf = appendIDKey(s.keyBuf, s.binding[st.roots[p]])
		}
		if bid, ok := idx.keyIDs[string(s.keyBuf)]; ok {
			rows = idx.bucket(bid)
		}
	}
	c.rows, c.pos, c.n, c.indexed = rows, 0, 0, true
	return true
}

// runPipeline streams one component's steps to its next full match,
// leaving the match's bindings in place.  With resume false it opens
// the pipeline at the first step; with resume true it continues from
// the deepest cursor of the match the previous call returned, so
// repeated calls enumerate every match in candidate order — the
// first-match search and Eval's enumeration share this one driver.
// It returns false once the component is exhausted (every binding it
// pushed unwound) or on cancellation (bindings left as they were).
//
//keyedeq:hot -- the streamed pipeline driver: every candidate is one cursor pull plus ID-compare binds
func (s *streamSearcher) runPipeline(steps []planStep, resume bool) bool {
	if len(steps) == 0 {
		return !resume
	}
	depth := len(steps) - 1
	if resume {
		s.unbindTo(s.marks[depth])
	} else {
		if !s.openCursor(steps, 0) {
			return false
		}
		depth = 0
	}
	for {
		c := &s.cursors[depth]
		var ri int
		if c.indexed {
			if c.pos == len(c.rows) {
				if depth == 0 {
					return false
				}
				depth--
				s.unbindTo(s.marks[depth])
				continue
			}
			ri = int(c.rows[c.pos])
		} else {
			if c.pos == c.n {
				if depth == 0 {
					return false
				}
				depth--
				s.unbindTo(s.marks[depth])
				continue
			}
			ri = c.pos
		}
		c.pos++
		if !s.countNode() {
			return false
		}
		st := &steps[depth]
		s.marks[depth] = len(s.addedStack)
		if !s.tryBind(st, s.fz.Relations[st.relIdx], ri) {
			s.unbindTo(s.marks[depth])
			continue
		}
		if depth == len(steps)-1 {
			return true
		}
		depth++
		if !s.openCursor(steps, depth) {
			return false
		}
	}
}

// prebinding fixes one equality class's value before the search starts
// (a constant from the equality list, or a wanted head value).  The
// slice stays tiny, so lookups are linear scans rather than map probes.
type prebinding struct {
	root Var
	val  value.Value
}

// lookupPre returns the prebound value of root, if any.
func lookupPre(pres []prebinding, root Var) (value.Value, bool) {
	for _, pb := range pres {
		if pb.root == root {
			return pb.val, true
		}
	}
	return value.Value{}, false
}

// collectConstPrebindings gathers the constant-bound classes touched by
// the body into pres (deduplicated by representative).
func collectConstPrebindings(q *Query, eq *EqClasses, pres []prebinding) []prebinding {
	for _, a := range q.Body {
		for _, v := range a.Vars {
			if c, ok := eq.Const(v); ok {
				root := eq.Find(v)
				if _, seen := lookupPre(pres, root); !seen {
					pres = append(pres, prebinding{root: root, val: c})
				}
			}
		}
	}
	return pres
}

// prebind seeds the binding slices from the values fixed before the
// search starts, interning each (a value the frozen view never saw
// gets a ghost ID).
func (s *streamSearcher) prebind(pres []prebinding) {
	for _, pb := range pres {
		if id, ok := s.plan.classOf[pb.root]; ok {
			s.binding[id] = s.internID(pb.val)
			s.bound[id] = true
		}
	}
}

// streamPrebindings collects the constant prebindings plus the head
// classes pinned to want.  The checks run at the surface-value level,
// before any interning, so an impossible want is a miss before any
// node is counted; earlyMiss reports such a contradiction.
func streamPrebindings(q *Query, eq *EqClasses, want instance.Tuple) (pres []prebinding, earlyMiss bool) {
	pres = collectConstPrebindings(q, eq, make([]prebinding, 0, len(q.Head)+2))
	for i, term := range q.Head {
		if term.IsConst {
			if term.Const != want[i] {
				return nil, true
			}
			continue
		}
		root := eq.Find(term.Var)
		if bv, ok := lookupPre(pres, root); ok {
			if bv != want[i] {
				return nil, true
			}
			continue
		}
		pres = append(pres, prebinding{root: root, val: want[i]})
	}
	return pres, false
}

// buildStreamPlan compiles the plan and emits the plan-stage span.
func buildStreamPlan(ctx context.Context, q *Query, rels []*instance.Relation, relIdxs []int, eq *EqClasses, pres []prebinding) *searchPlan {
	o := obs.FromContext(ctx)
	planStart := o.Time()
	plan := buildPlan(q, rels, relIdxs, eq, pres)
	if o.SpansOn() {
		steps := 0
		for ci := range plan.comps {
			steps += len(plan.comps[ci].steps)
		}
		o.EmitSpan(ctx, obs.StagePlan, planStart, nil,
			obs.I("components", int64(len(plan.comps))),
			obs.I("steps", int64(steps)))
	}
	return plan
}

// runComponentsSequential searches the plan's components in order over
// one searcher, recording per-component node counts.  A miss or a
// cancellation in an earlier component ends the search, so the
// recorded entries always sum to Nodes.
func runComponentsSequential(s *streamSearcher, plan *searchPlan) (bool, error) {
	for ci := range plan.comps {
		before := s.stats.Nodes
		found := s.runPipeline(plan.comps[ci].steps, false)
		s.stats.CompNodes = append(s.stats.CompNodes, s.stats.Nodes-before)
		if !found {
			return false, s.canceled
		}
	}
	return true, nil
}

// decodeWitness projects the successful bindings back to surface
// values, per body variable through its class representative — the
// boundary past which no interned ID may escape.
func decodeWitness(s *streamSearcher, plan *searchPlan, q *Query, eq *EqClasses) map[Var]value.Value {
	witness := make(map[Var]value.Value)
	for _, a := range q.Body {
		for _, v := range a.Vars {
			witness[v] = s.decodeID(s.binding[plan.classOf[eq.Find(v)]])
		}
	}
	return witness
}
