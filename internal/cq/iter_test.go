package cq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// These tests pin the search's forced-arm contracts.  The cost model
// is overridden (in-package, serially) to pin one arm: the dense scan
// must be bit-identical to the naive oracle — verdicts, EvalStats, and
// witnesses — because it replays the naive dynamic atom order; the
// streamed pipeline must agree with the naive oracle and the scan on
// verdicts and produce valid witnesses; and the parallel component
// search must be bit-identical to the sequential pipeline on every
// non-canceled outcome.

// randomGraphDB builds a random E(a,b) digraph over [0, nodes).
func randomGraphDB(rng *rand.Rand, nodes int64, edges int) *instance.Database {
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	for i := 0; i < edges; i++ {
		d.MustInsert("E", val(1, rng.Int63n(nodes)), val(1, rng.Int63n(nodes)))
	}
	return d
}

// parityQueries covers the plan shapes the search distinguishes: chains
// (indexed probes), self-loops, equality-linked components, constants,
// cross products, and repeated relations sharing index slots.
func parityQueries() []*Query {
	return []*Query{
		MustParse("V(X, Z) :- E(X, Y), E(Y, Z)."),
		MustParse("V(X) :- E(X, X)."),
		MustParse("V(X, W) :- E(X, Y), E(Z, W), Y = Z."),
		MustParse("V(X, Z) :- E(X, Y), E(Y, Z), Y = T1:3."),
		MustParse("V(X, Z) :- E(X, Y), E(Z, W)."),
		MustParse("V(X) :- E(X, Y), E(Y, Z), E(Y, W)."),
		MustParse("V(A, E) :- E(A, B), E(B, C), E(C, D), E(D, E)."),
	}
}

// withCostConfig pins the package cost configuration for one test body.
func withCostConfig(t *testing.T, cfg costConfig, body func()) {
	t.Helper()
	orig := costCfg
	costCfg = cfg
	defer func() { costCfg = orig }()
	body()
}

// scanArmConfig routes every search to the dense scan at tier 0.
func scanArmConfig() costConfig {
	cfg := defaultCostConfig
	cfg.scanMaxCard = math.MaxInt
	return cfg
}

// pipelineArmConfig routes every search to the streamed pipeline:
// tier 0 never fires, and a negative setup cost makes the pipeline win
// every tier-1 comparison, even over empty relations.  workers above
// one also removes the parallel gate's work floor, so multi-component
// plans fan out.
func pipelineArmConfig(workers int) costConfig {
	cfg := defaultCostConfig
	cfg.scanMaxCard = -1
	cfg.planOverhead = -1
	cfg.indexBuildPerRow = 0
	cfg.nodeCost = 0
	cfg.parallelMinNodes = 0
	cfg.parallelWorkers = workers
	return cfg
}

// searchResult is one search's full outcome.
type searchResult struct {
	ok  bool
	w   map[Var]value.Value
	es  EvalStats
	err error
}

// searchWith runs the production search under cfg.
func searchWith(t *testing.T, cfg costConfig, ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) searchResult {
	t.Helper()
	var r searchResult
	withCostConfig(t, cfg, func() {
		r.ok, r.w, r.es, r.err = FindAnswerBindingCtx(ctx, q, d, want)
	})
	return r
}

// naiveResult runs the naive oracle.
func naiveResult(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) searchResult {
	var r searchResult
	r.ok, r.w, r.es, r.err = FindAnswerBindingNaive(ctx, q, d, want)
	return r
}

// checkVerdicts requires a and b to agree on error presence and verdict.
func checkVerdicts(t *testing.T, a, b searchResult, tag string) {
	t.Helper()
	if (a.err == nil) != (b.err == nil) {
		t.Fatalf("%s: errors diverge: %v, %v", tag, a.err, b.err)
	}
	if a.err == nil && a.ok != b.ok {
		t.Fatalf("%s: verdicts diverge: %v, %v", tag, a.ok, b.ok)
	}
}

// checkBitIdentical requires a and b to agree on verdict, full stats,
// and witness.
func checkBitIdentical(t *testing.T, a, b searchResult, tag string) {
	t.Helper()
	checkVerdicts(t, a, b, tag)
	if a.err != nil {
		return
	}
	if a.es.Nodes != b.es.Nodes || fmt.Sprint(a.es.CompNodes) != fmt.Sprint(b.es.CompNodes) {
		t.Fatalf("%s: stats diverge: %+v, %+v", tag, a.es, b.es)
	}
	if len(a.w) != len(b.w) {
		t.Fatalf("%s: witness sizes diverge: %d vs %d", tag, len(a.w), len(b.w))
	}
	for v, av := range a.w {
		if bv, ok := b.w[v]; !ok || bv != av {
			t.Fatalf("%s: witness diverges at %s: %v, %v", tag, v, av, b.w[v])
		}
	}
}

// checkWitness requires a found search's witness to be a homomorphism
// onto d answering want: every body atom maps onto a tuple of its
// relation, every equality holds, and the head evaluates to want.
func checkWitness(t *testing.T, q *Query, d *instance.Database, want instance.Tuple, r searchResult, tag string) {
	t.Helper()
	if r.err != nil || !r.ok {
		return
	}
	for _, a := range q.Body {
		tp := make(instance.Tuple, len(a.Vars))
		for p, v := range a.Vars {
			tp[p] = r.w[v]
		}
		if !d.Relation(a.Rel).Has(tp) {
			t.Fatalf("%s: witness maps %s onto %v, not a tuple of the database", tag, a.Rel, tp)
		}
	}
	for _, e := range q.Eqs {
		right := e.Right.Const
		if !e.Right.IsConst {
			right = r.w[e.Right.Var]
		}
		if r.w[e.Left] != right {
			t.Fatalf("%s: witness violates %s = %v", tag, e.Left, e.Right)
		}
	}
	for i, term := range q.Head {
		got := term.Const
		if !term.IsConst {
			got = r.w[term.Var]
		}
		if got != want[i] {
			t.Fatalf("%s: witness head position %d is %v, want %v", tag, i, got, want[i])
		}
	}
}

// TestStreamedMatchesOraclesRandomized sweeps the plan shapes of
// parityQueries over random digraphs large enough to build indexes,
// forcing the streamed pipeline and checking its verdicts against the
// naive oracle and the forced scan arm, and its witnesses for
// validity.
func TestStreamedMatchesOraclesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	queries := parityQueries()
	for trial := 0; trial < 300; trial++ {
		nodes := int64(3 + rng.Intn(8))
		d := randomGraphDB(rng, nodes, 4+rng.Intn(60))
		q := queries[rng.Intn(len(queries))]
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = val(1, rng.Int63n(nodes+1))
		}
		tag := fmt.Sprintf("trial %d", trial)
		pipe := searchWith(t, pipelineArmConfig(1), context.Background(), q, d, want)
		checkVerdicts(t, naiveResult(context.Background(), q, d, want), pipe, tag+" naive/pipeline")
		checkVerdicts(t, searchWith(t, scanArmConfig(), context.Background(), q, d, want), pipe, tag+" scan/pipeline")
		checkWitness(t, q, d, want, pipe, tag)
	}
}

// TestStreamedGhostValuesFilterLikeMissingBuckets pins ghost IDs on the
// hash-index pipeline: wanted values and constants absent from the
// database must probe empty buckets, so the search refutes exactly as
// the naive oracle does, and which absent value is asked for cannot
// change the nodes visited.
func TestStreamedGhostValuesFilterLikeMissingBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	d := randomGraphDB(rng, 5, 25)
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z), Z = T1:99.")
	want := instance.Tuple{val(1, 77), val(1, 99)}
	pipe := searchWith(t, pipelineArmConfig(1), context.Background(), q, d, want)
	checkVerdicts(t, naiveResult(context.Background(), q, d, want), pipe, "ghost constants")
	if pipe.ok {
		t.Fatal("ghost constants matched a database tuple")
	}
	q2 := MustParse("V(X, Z) :- E(X, Y), E(Y, Z), Z = T1:55.")
	other := searchWith(t, pipelineArmConfig(1), context.Background(), q2, d, instance.Tuple{val(1, 66), val(1, 55)})
	checkBitIdentical(t, pipe, other, "ghost value choice")
}

// TestInternedGhostValuesFilterLikeMissingBuckets pins the per-search
// ghost table: the same absent value wanted in two head positions must
// resolve to one ghost ID (so both positions agree) and refute as the
// naive oracle does.
func TestInternedGhostValuesFilterLikeMissingBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := randomGraphDB(rng, 5, 25)
	q := MustParse("V(X, Y) :- E(X, Y), E(Y, Z).")
	for _, want := range []instance.Tuple{{val(1, 88), val(1, 88)}, {val(1, 88), val(1, 89)}} {
		pipe := searchWith(t, pipelineArmConfig(1), context.Background(), q, d, want)
		checkVerdicts(t, naiveResult(context.Background(), q, d, want), pipe, fmt.Sprintf("ghost want %v", want))
		if pipe.ok {
			t.Fatalf("ghost want %v matched", want)
		}
	}
}

// TestInternedWitnessDecodesFreshValues pins the decode boundary:
// canonical databases carry labeled nulls as allocator-fresh values,
// and a pipeline witness binding one must decode back to exactly that
// value.
func TestInternedWitnessDecodesFreshValues(t *testing.T) {
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	var alloc value.Allocator
	alloc.Reserve(val(1, 20))
	null := alloc.Fresh(1)
	d.MustInsert("E", val(1, 1), null)
	for i := int64(4); i < 20; i++ {
		d.MustInsert("E", val(1, i), val(1, i+1))
	}
	q := MustParse("V(X) :- E(X, Y).")
	want := instance.Tuple{val(1, 1)}
	pipe := searchWith(t, pipelineArmConfig(1), context.Background(), q, d, want)
	if pipe.err != nil || !pipe.ok {
		t.Fatalf("answer not found: %v", pipe.err)
	}
	if pipe.w["Y"] != null {
		t.Fatalf("witness Y = %v, want the fresh value %v", pipe.w["Y"], null)
	}
	checkBitIdentical(t, naiveResult(context.Background(), q, d, want), searchWith(t, scanArmConfig(), context.Background(), q, d, want), "fresh-value witness")
}

// TestInternedReusesFrozenViewAcrossSearches pins the memoization the
// pipeline's plan and index caches rely on: two searches over an
// unmutated database share one frozen view.
func TestInternedReusesFrozenViewAcrossSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := randomGraphDB(rng, 6, 30)
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z).")
	want := instance.Tuple{val(1, 0), val(1, 1)}
	if r := searchWith(t, pipelineArmConfig(1), context.Background(), q, d, want); r.err != nil {
		t.Fatal(r.err)
	}
	f1 := d.Frozen()
	if r := searchWith(t, pipelineArmConfig(1), context.Background(), q, d, want); r.err != nil {
		t.Fatal(r.err)
	}
	if f2 := d.Frozen(); f1 != f2 {
		t.Fatal("frozen view rebuilt between searches over an unmutated database")
	}
}

// TestScanIDMatchesNaiveRandomized pins the scan arm to the naive
// oracle bit for bit: same dynamic atom order, same node counts, same
// witnesses — only the binding representation differs.
func TestScanIDMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	queries := parityQueries()
	for trial := 0; trial < 300; trial++ {
		nodes := int64(3 + rng.Intn(6))
		d := randomGraphDB(rng, nodes, 2+rng.Intn(28))
		q := queries[rng.Intn(len(queries))]
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = val(1, rng.Int63n(nodes+1))
		}
		checkBitIdentical(t, naiveResult(context.Background(), q, d, want), searchWith(t, scanArmConfig(), context.Background(), q, d, want),
			fmt.Sprintf("trial %d", trial))
	}
}

// TestAdaptiveSmallInstancesMatchNaive pins the tier-0 fast path: on
// databases whose every relation fits under the scan threshold, the
// default search runs the dense scan and therefore reports exactly
// the naive oracle's stats.
func TestAdaptiveSmallInstancesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	queries := parityQueries()
	for trial := 0; trial < 100; trial++ {
		d := randomGraphDB(rng, 4, 2+rng.Intn(smallRelScanThreshold-1))
		if d.Relation("E").Len() > smallRelScanThreshold {
			continue
		}
		q := queries[rng.Intn(len(queries))]
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = val(1, rng.Int63n(5))
		}
		var def searchResult
		def.ok, def.w, def.es, def.err = FindAnswerBindingCtx(context.Background(), q, d, want)
		checkBitIdentical(t, naiveResult(context.Background(), q, d, want), def, fmt.Sprintf("trial %d", trial))
	}
}

// multiComponentQuery joins nothing across its two chains, so the plan
// splits into two components of two steps each.
func multiComponentQuery() *Query {
	return MustParse("V(X, Z, A, C) :- E(X, Y), E(Y, Z), E(A, B), E(B, C).")
}

// TestParallelComponentsMatchSequential forces the parallel component
// path and checks it against the sequential pipeline on found,
// not-found, and empty-component outcomes: verdicts, Nodes, CompNodes,
// and witnesses must be bit-identical.
func TestParallelComponentsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	q := multiComponentQuery()
	for trial := 0; trial < 120; trial++ {
		nodes := int64(4 + rng.Intn(6))
		d := randomGraphDB(rng, nodes, 12+rng.Intn(50))
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = val(1, rng.Int63n(nodes+1))
		}
		// Sanity: the forced configuration must actually pick the
		// parallel pipeline for this shape, or the test is vacuous.
		if trial == 0 {
			withCostConfig(t, pipelineArmConfig(4), func() {
				info, err := ExplainPlan(q, d)
				if err != nil {
					t.Fatal(err)
				}
				if info.Strategy != "pipeline-parallel" || len(info.Components) != 2 {
					t.Fatalf("expected pipeline-parallel over 2 components, got %q %v", info.Strategy, info.Components)
				}
			})
		}
		tag := fmt.Sprintf("trial %d", trial)
		seq := searchWith(t, pipelineArmConfig(1), context.Background(), q, d, want)
		par := searchWith(t, pipelineArmConfig(4), context.Background(), q, d, want)
		checkBitIdentical(t, seq, par, tag)
		checkVerdicts(t, naiveResult(context.Background(), q, d, want), par, tag+" naive")
	}
}

// TestParallelCancellationObserved pins the polling contract on the
// parallel path: each worker polls under its own masked counter, so a
// pre-canceled context must be observed within cancelCheckMask+1 nodes
// per reported component.
func TestParallelCancellationObserved(t *testing.T) {
	d := cancelGraph(t, true)
	// Two 11-step chains over the two-component complete digraph, each
	// pinned 1→4 across the digraph's components: both plan components
	// are unsatisfiable and fan out well past the poll mask before
	// exhausting, so an unobserved cancellation would be caught.
	q := MustParse("V(A1, A12, B1, B12) :- " +
		"E(A1, A2), E(A2, A3), E(A3, A4), E(A4, A5), E(A5, A6), E(A6, A7), E(A7, A8), E(A8, A9), E(A9, A10), E(A10, A11), E(A11, A12), " +
		"E(B1, B2), E(B2, B3), E(B3, B4), E(B4, B5), E(B5, B6), E(B6, B7), E(B7, B8), E(B8, B9), E(B9, B10), E(B10, B11), E(B11, B12).")
	want := instance.Tuple{val(1, 1), val(1, 4), val(1, 1), val(1, 4)}
	// Control: uncancelled, each component must exhaust past the first
	// poll point, or the assertion below is vacuous.
	ctl := searchWith(t, pipelineArmConfig(4), context.Background(), q, d, want)
	if ctl.err != nil {
		t.Fatal(ctl.err)
	}
	if ctl.ok {
		t.Fatal("cross-component chain unexpectedly satisfiable")
	}
	if ctl.es.Nodes <= cancelCheckMask+1 {
		t.Fatalf("exhaustive search visited %d nodes, need > %d", ctl.es.Nodes, cancelCheckMask+1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := searchWith(t, pipelineArmConfig(4), ctx, q, d, want)
	if r.err != context.Canceled {
		t.Fatalf("canceled parallel search returned %v (ok=%v)", r.err, r.ok)
	}
	bound := int64(len(r.es.CompNodes)) * (cancelCheckMask + 1)
	if r.es.Nodes > bound {
		t.Fatalf("cancellation observed after %d nodes across %d components, contract allows at most %d",
			r.es.Nodes, len(r.es.CompNodes), bound)
	}
}
