// Package engine is the batch equivalence/containment engine: it
// canonicalizes conjunctive queries to a renaming-invariant form,
// memoizes chase results and containment verdicts in a bounded sharded
// LRU keyed by canonical-pair hash, and fans batches of query pairs
// across a worker pool with per-job timeout and cancellation.
//
// The caching is sound because Theorem 13's equivalence notion is
// invariant under exactly the transformations the canonical form
// quotients away: variable renaming and body-atom reordering change
// neither a query's answers nor, therefore, any containment or
// equivalence verdict it participates in.  A canonical key fully
// describes a query up to those transformations, so equal keys imply
// interchangeable queries.
package engine

import (
	"bytes"
	"slices"
	"sort"
	"strconv"
	"strings"

	"keyedeq/internal/cq"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Canonical is a renaming-invariant fingerprint of a conjunctive query.
type Canonical struct {
	// Key encodes the query up to variable renaming and body-atom
	// reordering: equal keys imply queries with identical answers on
	// every database.  The converse direction (α-equivalent queries
	// producing equal keys) holds whenever Exact is true.
	Key string
	// Exact records that the tie-breaking search ran to completion, so
	// the key is a true canonical form.  When false (search budget
	// exhausted on a highly symmetric query) the key is still sound for
	// caching — it fully describes the query — but α-equivalent
	// presentations may hash to different keys, costing cache hits
	// only.
	Exact bool
}

// tieBreakBudget bounds the backtracking tie-break search.  Color
// refinement discriminates all realistic query shapes (chains, stars,
// cliques resolve with zero or automorphic-only branching); the budget
// is a backstop against adversarially symmetric inputs.
const tieBreakBudget = 1 << 14

// CanonicalizeQuery computes the canonical form of q.  The schema may
// be nil; it is consulted only to collapse unsatisfiable queries (whose
// equality lists equate distinct constants) to a shared per-head-type
// key, since all such queries are empty on every database.
func CanonicalizeQuery(q *cq.Query, s *schema.Schema) Canonical {
	c, unsat := newCanonizer(q)
	if unsat {
		return Canonical{Key: unsatKey(q, s), Exact: true}
	}
	c.refine()
	key, exact := c.encode()
	return Canonical{Key: key, Exact: exact}
}

// unsatKey collapses always-empty queries: a query whose equality list
// equates two distinct constants has no answers on any database, so
// any two such queries of equal head type are equivalent.
func unsatKey(q *cq.Query, s *schema.Schema) string {
	if s != nil {
		if ht, err := q.HeadType(s); err == nil {
			parts := make([]string, len(ht))
			for i, t := range ht {
				parts[i] = t.String()
			}
			return "UNSAT|" + strings.Join(parts, ",")
		}
	}
	return "CONFLICT|" + strconv.Itoa(len(q.Head))
}

// headTerm is a normalized head entry: a constant or a class index.
type headTerm struct {
	isConst bool
	cnst    value.Value
	class   int
}

// canonizer holds the normalized query during canonicalization.  All
// state is slice-indexed by dense class and atom numbers so every loop
// is deterministic (no map iteration anywhere on this path).  Per-class
// tables are in compressed-row form — one flat backing array per table
// plus an offset array — so building them costs a fixed handful of
// allocations whatever the query's size.
type canonizer struct {
	atomRel  []string // per atom: relation name
	relColor []int    // per atom: dense rank of its relation name
	atomArgs [][]int  // per atom: class index per position
	head     []headTerm
	// Per class:
	classConst []value.Value // bound constant (zero Value when none)
	classHasC  []bool
	constStr   []string // rendered constant binding; set by refine, nil when no class binds one
	// Head positions mentioning class ci are headPos[headStart[ci]:headStart[ci+1]].
	headStart []int
	headPos   []int
	// Class ci's occurrences are occAtom[occStart[ci]:occStart[ci+1]]
	// (atom index) and the same range of occPos (position in the atom).
	occStart []int
	occAtom  []int
	occPos   []int
	color    []int // current refinement color per class

	// Encoder scratch, reused across search steps.
	row, bestRow []int
	// cands is a stack of candidate lists, one frame per search depth
	// (see search).
	cands []int
}

// newCanonizer normalizes q: it resolves the equality list with a
// slot-indexed union-find (one map lookup per variable occurrence, all
// union-find state in slices), then builds the class-indexed atom and
// occurrence tables.  The second return is true when the equality list
// equates two distinct constants, i.e. the query is unsatisfiable.
func newCanonizer(q *cq.Query) (*canonizer, bool) {
	// Slot per distinct variable, in order of first appearance.  Body
	// occurrences bound the distinct variables of any valid query (the
	// head and equality list only mention body variables), so sizing the
	// map by them avoids rehashing while it fills.
	total := 0
	for _, a := range q.Body {
		total += len(a.Vars)
	}
	slotOf := make(map[cq.Var]int, total)
	slot := func(v cq.Var) int {
		if i, ok := slotOf[v]; ok {
			return i
		}
		i := len(slotOf)
		slotOf[v] = i
		return i
	}
	for _, a := range q.Body {
		for _, v := range a.Vars {
			slot(v)
		}
	}
	for _, e := range q.Eqs {
		slot(e.Left)
		if !e.Right.IsConst {
			slot(e.Right.Var)
		}
	}
	for _, t := range q.Head {
		if !t.IsConst {
			slot(t.Var)
		}
	}

	n := len(slotOf)
	ints := make([]int, 3*n)
	parent, rnk, classAt := ints[:n], ints[n:2*n], ints[2*n:]
	hasC := make([]bool, n)        // valid on roots
	cval := make([]value.Value, n) // valid on roots with hasC
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	unsat := false
	for _, e := range q.Eqs {
		if e.Right.IsConst {
			r := find(slotOf[e.Left])
			if hasC[r] {
				if cval[r] != e.Right.Const {
					unsat = true
				}
				continue
			}
			hasC[r] = true
			cval[r] = e.Right.Const
			continue
		}
		ra, rb := find(slotOf[e.Left]), find(slotOf[e.Right.Var])
		if ra == rb {
			continue
		}
		if rnk[ra] < rnk[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if rnk[ra] == rnk[rb] {
			rnk[ra]++
		}
		if hasC[rb] {
			if hasC[ra] {
				if cval[ra] != cval[rb] {
					unsat = true
				}
			} else {
				hasC[ra] = true
				cval[ra] = cval[rb]
			}
		}
	}
	if unsat {
		return nil, true
	}

	c := &canonizer{}
	for i := range classAt { // root slot -> dense class index
		classAt[i] = -1
	}
	c.classConst = make([]value.Value, 0, n)
	c.classHasC = make([]bool, 0, n)
	classIdx := func(v cq.Var) int {
		root := find(slotOf[v])
		if i := classAt[root]; i >= 0 {
			return i
		}
		i := len(c.classConst)
		classAt[root] = i
		c.classConst = append(c.classConst, cval[root])
		c.classHasC = append(c.classHasC, hasC[root])
		return i
	}
	argsFlat := make([]int, 0, total)
	c.atomRel = make([]string, len(q.Body))
	c.atomArgs = make([][]int, len(q.Body))
	for ai, a := range q.Body {
		start := len(argsFlat)
		for _, v := range a.Vars {
			argsFlat = append(argsFlat, classIdx(v))
		}
		c.atomRel[ai] = a.Rel
		c.atomArgs[ai] = argsFlat[start:len(argsFlat):len(argsFlat)]
	}
	// Equality-only variables (invalid against any schema, but the
	// canonizer is total): give them classes so encoding never panics.
	for _, e := range q.Eqs {
		classIdx(e.Left)
		if !e.Right.IsConst {
			classIdx(e.Right.Var)
		}
	}
	c.head = make([]headTerm, len(q.Head))
	headClass := make([]int, len(q.Head)) // class per head position, -1 for consts
	for hi, t := range q.Head {
		if t.IsConst {
			c.head[hi] = headTerm{isConst: true, cnst: t.Const}
			headClass[hi] = -1
			continue
		}
		ci := classIdx(t.Var)
		c.head[hi] = headTerm{class: ci}
		headClass[hi] = ci
	}

	// All classes exist now; build the compressed-row per-class tables.
	nc := len(c.classConst)
	starts := make([]int, 2*(nc+1))
	c.headStart, c.occStart = starts[:nc+1], starts[nc+1:]
	c.headPos = make([]int, 0, len(headClass))
	for ci := 0; ci < nc; ci++ {
		c.headStart[ci] = len(c.headPos)
		for hi, hc := range headClass {
			if hc == ci {
				c.headPos = append(c.headPos, hi)
			}
		}
	}
	c.headStart[nc] = len(c.headPos)
	// occStart[ci+1] counts class ci's occurrences, then prefix sums
	// turn counts into row ends; the fill below advances each row's
	// cursor occStart[ci] up to its end, so a final shift restores the
	// row starts.
	for _, args := range c.atomArgs {
		for _, ci := range args {
			c.occStart[ci+1]++
		}
	}
	for ci := 1; ci <= nc; ci++ {
		c.occStart[ci] += c.occStart[ci-1]
	}
	occ := make([]int, 2*total)
	c.occAtom, c.occPos = occ[:total], occ[total:]
	for ai, args := range c.atomArgs {
		for p, ci := range args {
			k := c.occStart[ci]
			c.occAtom[k], c.occPos[k] = ai, p
			c.occStart[ci]++
		}
	}
	copy(c.occStart[1:], c.occStart[:nc])
	c.occStart[0] = 0
	c.color = make([]int, nc)
	relNames := append([]string(nil), c.atomRel...)
	sort.Strings(relNames)
	relNames = uniqStrings(relNames)
	c.relColor = make([]int, len(c.atomRel))
	for ai, r := range c.atomRel {
		c.relColor[ai] = sort.SearchStrings(relNames, r)
	}
	return c, false
}

// occurrences returns class ci's occurrence atoms and positions.
func (c *canonizer) occurrences(ci int) (atoms, pos []int) {
	lo, hi := c.occStart[ci], c.occStart[ci+1]
	return c.occAtom[lo:hi], c.occPos[lo:hi]
}

// refine assigns renaming-invariant colors to classes by iterated
// partition refinement: the initial color is the class's constant
// binding, head positions, and (relation, position) occurrence multiset;
// each round folds in the colors of co-occurring classes until the
// partition stabilizes.
//
// A round's class signature is the class's own color followed by the
// sorted multiset of (atom color, position) occurrences, so the new
// dense ranks refine the old order: every old color cell keeps its place
// and splits only internally.  Rounds therefore work cell by cell over
// the classes kept sorted by color.  A singleton cell cannot split and
// takes the next rank without building its row; only wider cells build
// occurrence rows and sort them.  Atoms are re-ranked in full each round
// instead: their order is not monotone across rounds (R(1,5) sorts after
// R(1,3), but once color 1's cell splits, the first argument of R(1,5)
// may take the smaller new color and the order flips), and they are
// few.  Class and atom rows live in one backing array each, sized for
// their widest round and rewritten in place.
//
//keyedeq:hot -- iterated refinement rounds over every class and atom; every canonical key pays for it
func (c *canonizer) refine() {
	nc, na := len(c.color), len(c.atomRel)
	posBase := c.posBase()
	classRows := make([][]int, nc)
	c.initialRows(posBase, classRows, make([]int, 2*nc+len(c.headPos)+len(c.occAtom)))
	idx := make([]int, max(nc, na)) // rankRows and counting-sort scratch
	distinct := rankRows(classRows, c.color, idx)
	if distinct == nc {
		return // discrete partition: colors are final
	}

	// One arena holds the atom rows, the atom colors and order: the
	// classes sorted by color, so each color's cell is a contiguous run.
	atomFlat := make([]int, 2*na+len(c.occAtom)+nc)
	atomRows := make([][]int, na)
	off := 0
	for ai, args := range c.atomArgs {
		atomRows[ai] = atomFlat[off : off : off+1+len(args)]
		off += 1 + len(args)
	}
	atomColor, order := atomFlat[off:off+na], atomFlat[off+na:]
	// Counting sort by color: next[k] starts at color k's first slot in
	// order and advances as the cell fills.
	next := idx[:distinct]
	clear(next)
	for _, col := range c.color {
		next[col]++
	}
	sum := 0
	for k, n := range next {
		next[k] = sum
		sum += n
	}
	for ci, col := range c.color {
		order[next[col]] = ci
		next[col]++
	}

	for round := 0; round < nc; round++ {
		// Atom signature: relation color then argument class colors.
		for ai, args := range c.atomArgs {
			row := append(atomRows[ai][:0], c.relColor[ai])
			for _, ci := range args {
				row = append(row, c.color[ci])
			}
			atomRows[ai] = row
		}
		rankRows(atomRows, atomColor, idx)
		// Walk the cells in color order.  A cell's extent is read before
		// its members are recolored, from positions not yet visited, so
		// new ranks never mix with old colors.
		rank := 0
		for lo := 0; lo < nc; {
			hi := lo + 1
			for hi < nc && c.color[order[hi]] == c.color[order[lo]] {
				hi++
			}
			cell := order[lo:hi]
			lo = hi
			if len(cell) == 1 {
				c.color[cell[0]] = rank
				rank++
				continue
			}
			for _, ci := range cell {
				occAtom, occPos := c.occurrences(ci)
				row := classRows[ci][:0]
				for k, ai := range occAtom {
					row = append(row, atomColor[ai]*posBase+occPos[k])
				}
				slices.Sort(row)
				classRows[ci] = row
			}
			// Sorting the cell by row keeps order sorted by the new colors.
			slices.SortFunc(cell, func(a, b int) int { return slices.Compare(classRows[a], classRows[b]) })
			for k, ci := range cell {
				if k > 0 && !slices.Equal(classRows[cell[k-1]], classRows[ci]) {
					rank++
				}
				c.color[ci] = rank
			}
			rank++
		}
		if rank == distinct || rank == nc {
			return
		}
		distinct = rank
	}
}

// posBase returns a base that makes (color, position) pairs
// collision-free when packed into one int: one more than the widest
// atom's arity.
func (c *canonizer) posBase() int {
	base := 1
	for _, args := range c.atomArgs {
		if len(args) >= base {
			base = len(args) + 1
		}
	}
	return base
}

// initialRows fills classRows with the initial class signatures: the
// rank of the class's constant binding (0 for none), its head count and
// head positions, then its sorted (relation color, position) occurrence
// multiset.  Rows are carved from flat, which must hold
// 2*classes + len(c.headPos) + len(c.occAtom) ints.
func (c *canonizer) initialRows(posBase int, classRows [][]int, flat []int) {
	// Constant bindings are the only name-bearing invariant left after
	// relColor; render and rank them once up front (most classes bind
	// none).  The rendering is kept for the encoder.
	var consts []string
	for ci := range c.color {
		if c.classHasC[ci] {
			if c.constStr == nil {
				c.constStr = make([]string, len(c.color))
			}
			c.constStr[ci] = c.classConst[ci].String()
			consts = append(consts, c.constStr[ci])
		}
	}
	if len(consts) > 0 {
		sort.Strings(consts)
		consts = uniqStrings(consts)
	}
	off := 0
	for ci := range classRows {
		constRank := 0
		if c.classHasC[ci] {
			constRank = 1 + sort.SearchStrings(consts, c.constStr[ci])
		}
		headP := c.headPos[c.headStart[ci]:c.headStart[ci+1]]
		occAtom, occPos := c.occurrences(ci)
		w := 2 + len(headP) + len(occAtom)
		row := append(flat[off:off:off+w], constRank, len(headP))
		row = append(row, headP...)
		mark := len(row)
		for k, ai := range occAtom {
			row = append(row, c.relColor[ai]*posBase+occPos[k])
		}
		slices.Sort(row[mark:])
		classRows[ci] = row
		off += w
	}
}

// uniqStrings deduplicates a sorted slice in place.
func uniqStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// rankRows assigns each row its dense rank under lexicographic order,
// writing ranks into out (len(out) == len(rows)), and returns the number
// of distinct rows.  idx is index scratch of at least len(rows).
//
//keyedeq:hot -- ranks every class and atom row once per refinement round
func rankRows(rows [][]int, out, idx []int) int {
	idx = idx[:len(rows)]
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return slices.Compare(rows[a], rows[b]) })
	rank := 0
	for k, i := range idx {
		if k > 0 && !slices.Equal(rows[idx[k-1]], rows[i]) {
			rank++
		}
		out[i] = rank
	}
	return rank + 1
}

// encoding is a sequence of encoded segments (the head, then one per
// emitted atom) held in one byte buffer with the segments joined by
// '|' — exactly the canonical key's layout — plus each segment's end
// offset.
type encoding struct {
	buf  []byte
	ends []int
}

// seg returns segment i.
func (e *encoding) seg(i int) []byte {
	start := 0
	if i > 0 {
		start = e.ends[i-1] + 1 // skip the '|' separator
	}
	return e.buf[start:e.ends[i]]
}

// encState is one node of the tie-break search: a partial atom order
// and variable numbering.
type encState struct {
	num  []int // class -> assigned de Bruijn number, -1 when unassigned
	next int
	used []bool
	encoding
}

// encode produces the canonical key: the head (its order is already
// invariant), then body atoms in the lexicographically least order
// compatible with the refinement colors, numbering classes by first
// appearance.  Ties between same-colored candidates are resolved by
// bounded backtracking over full encodings; automorphic ties (stars,
// cliques) yield identical encodings on every branch, so even a budget
// cutoff returns the true canonical form for them.
//
//keyedeq:hot -- emits every canonical key; every segment appends into one byte buffer
func (c *canonizer) encode() (string, bool) {
	na := len(c.atomRel)
	st := &encState{
		num:  make([]int, len(c.color)),
		used: make([]bool, na),
		encoding: encoding{
			// Room for "H:" plus a head entry per position and a few
			// bytes per atom argument; append grows it if need be.
			buf:  make([]byte, 0, 2+4*len(c.head)+8*na+4*len(c.occAtom)),
			ends: make([]int, 0, na+1),
		},
	}
	for i := range st.num {
		st.num[i] = -1
	}
	st.buf = append(st.buf, "H:"...)
	for i, h := range c.head {
		if i > 0 {
			st.buf = append(st.buf, ',')
		}
		if h.isConst {
			st.buf = append(st.buf, 'c')
			st.buf = h.cnst.Append(st.buf)
			continue
		}
		c.writeClass(st, h.class)
	}
	st.ends = append(st.ends, len(st.buf))

	budget := tieBreakBudget
	var best encoding
	exact := c.search(st, &best, &budget)
	return string(best.buf), exact
}

// writeClass appends the encoding of a class occurrence to st's buffer,
// assigning the next de Bruijn number on first sight (with its constant
// binding, so the equality list is fully captured by numbering plus
// bindings).
func (c *canonizer) writeClass(st *encState, ci int) {
	first := st.num[ci] < 0
	if first {
		st.num[ci] = st.next
		st.next++
	}
	st.buf = append(st.buf, '#')
	st.buf = strconv.AppendInt(st.buf, int64(st.num[ci]), 10)
	if first && c.classHasC[ci] {
		st.buf = append(st.buf, '=')
		st.buf = append(st.buf, c.constStr[ci]...)
	}
}

// search extends st one atom at a time, branching over minimal-key
// candidates, and records the lexicographically least complete encoding
// in best.  It returns false when the budget ran out before the branch
// space was exhausted.
//
// Candidate lists live on c.cands as a stack: each step pushes its frame
// above the caller's and pops it when done.  A child's pushes land above
// the frame a branching parent is still iterating, or in a regrown array
// that leaves the parent's view untouched, so frames never clobber.
//
//keyedeq:hot -- budgeted branch-and-bound over candidate atom orders; every canonical key pays for it
func (c *canonizer) search(st *encState, best *encoding, budget *int) bool {
	exact := true
	mark := len(c.cands)
	defer func() { c.cands = c.cands[:mark] }()
	for {
		if len(st.ends)-1 == len(c.atomRel) { // head segment + all atoms
			if best.ends == nil || prefixCompare(&st.encoding, best) < 0 {
				best.buf = append(best.buf[:0], st.buf...)
				best.ends = append(best.ends[:0], st.ends...)
			}
			return exact
		}
		*budget--
		if *budget < 0 {
			exact = false
		}
		c.cands = c.cands[:mark]
		cands := c.pruneInterchangeable(st, c.minCandidates(st))
		if !exact {
			cands = cands[:1] // greedy completion once over budget
		}
		if len(cands) == 1 {
			// No branching at this step: extend the state in place (the
			// common case — refinement fully discriminates chains and
			// most irregular queries, so the whole search is one pass
			// with zero state copies).
			c.applyTo(st, cands[0])
			// Prune once the extension is worse than the best encoding.
			if best.ends != nil && prefixCompare(&st.encoding, best) > 0 {
				return exact
			}
			continue
		}
		for _, ai := range cands {
			child := c.apply(st, ai)
			// Prune branches already worse than the best known encoding.
			if best.ends != nil && prefixCompare(&child.encoding, best) > 0 {
				continue
			}
			if !c.search(child, best, budget) {
				exact = false
			}
		}
		return exact
	}
}

// unassignedBase offsets refinement colors in step-key rows so every
// assigned de Bruijn number sorts before every unassigned class — atoms
// connected to the already-encoded prefix are preferred.
const unassignedBase = 1 << 30

// stepKeyRow renders an unused atom relative to the partial numbering as
// an integer row: relation rank, then per position the assigned number
// or the offset refinement color.  The row is renaming-invariant, so the
// candidate order is too.
func (c *canonizer) stepKeyRow(st *encState, ai int, row []int) []int {
	row = append(row[:0], c.relColor[ai])
	for _, ci := range c.atomArgs[ai] {
		if st.num[ci] >= 0 {
			row = append(row, st.num[ci])
		} else {
			row = append(row, unassignedBase+c.color[ci])
		}
	}
	return row
}

// minCandidates pushes the unused atoms whose step-key row is minimal
// onto the candidate stack as a new frame and returns that frame.
func (c *canonizer) minCandidates(st *encState) []int {
	mark := len(c.cands)
	found := false
	for ai := range c.atomRel {
		if st.used[ai] {
			continue
		}
		c.row = c.stepKeyRow(st, ai, c.row)
		cmp := -1
		if found {
			cmp = slices.Compare(c.row, c.bestRow)
		}
		found = true
		switch {
		case cmp < 0:
			c.bestRow = append(c.bestRow[:0], c.row...)
			c.cands = append(c.cands[:mark], ai)
		case cmp == 0:
			c.cands = append(c.cands, ai)
		}
	}
	return c.cands[mark:]
}

// pruneInterchangeable drops candidates whose branches are automorphic
// images of a kept candidate's branch, so exploring one suffices (and
// exactness is preserved).  All candidates share the same step-key row,
// which makes two cases cheap and sound:
//
//   - Literal duplicates: same relation and identical argument classes.
//     The child states differ only in which copy is marked used.
//   - Private atoms: every unassigned class occurs only inside the atom
//     itself.  Equal rows mean positionwise equal colors, and equal
//     colors for distinct private classes force equal constant bindings,
//     no head occurrences, and matching within-atom repetition, so
//     swapping the two atoms (with their private classes) is an
//     automorphism.  Stars and star-like fans resolve in linear time
//     because all pending leaf atoms collapse to one candidate.
func (c *canonizer) pruneInterchangeable(st *encState, cands []int) []int {
	if len(cands) < 2 {
		return cands
	}
	kept := cands[:0]
	privSeen := false
	for _, ai := range cands {
		if c.atomPrivate(st, ai) {
			if privSeen {
				continue
			}
			privSeen = true
			kept = append(kept, ai)
			continue
		}
		dup := false
		for _, aj := range kept {
			if c.sameAtom(ai, aj) {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, ai)
		}
	}
	return kept
}

// atomPrivate reports that every unassigned class of atom ai occurs in
// no other atom.
func (c *canonizer) atomPrivate(st *encState, ai int) bool {
	for _, ci := range c.atomArgs[ai] {
		if st.num[ci] >= 0 {
			continue
		}
		occAtom, _ := c.occurrences(ci)
		for _, oa := range occAtom {
			if oa != ai {
				return false
			}
		}
	}
	return true
}

// sameAtom reports atoms ai and aj are literally identical: same
// relation, same classes in the same positions.
func (c *canonizer) sameAtom(ai, aj int) bool {
	return c.relColor[ai] == c.relColor[aj] && slices.Equal(c.atomArgs[ai], c.atomArgs[aj])
}

// applyTo emits atom ai onto st in place, assigning numbers to its
// unassigned classes left to right.
func (c *canonizer) applyTo(st *encState, ai int) {
	st.used[ai] = true
	st.buf = append(st.buf, '|')
	st.buf = append(st.buf, c.atomRel[ai]...)
	st.buf = append(st.buf, '(')
	for p, ci := range c.atomArgs[ai] {
		if p > 0 {
			st.buf = append(st.buf, ',')
		}
		c.writeClass(st, ci)
	}
	st.buf = append(st.buf, ')')
	st.ends = append(st.ends, len(st.buf))
}

// apply emits atom ai onto a copy of st, for branching steps.  The copy
// keeps the parent's buffer capacity so the emission rarely regrows it.
func (c *canonizer) apply(st *encState, ai int) *encState {
	child := &encState{
		num:  slices.Clone(st.num),
		next: st.next,
		used: slices.Clone(st.used),
		encoding: encoding{
			buf:  append(make([]byte, 0, cap(st.buf)), st.buf...),
			ends: append(make([]int, 0, cap(st.ends)), st.ends...),
		},
	}
	c.applyTo(child, ai)
	return child
}

// prefixCompare compares a against the first len(a.ends) segments of b
// (segment-wise lexicographic); a shorter a equal so far compares 0.
// Segment-wise order differs from comparing the joined buffers (the
// '|' separator sorts after digits), and the canonical key is defined
// by the former.
func prefixCompare(a, b *encoding) int {
	for i := range a.ends {
		if i >= len(b.ends) {
			return 1
		}
		if d := bytes.Compare(a.seg(i), b.seg(i)); d != 0 {
			return d
		}
	}
	return 0
}
