package cq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
)

// These tests pin the cancelCheckMask polling contract: every search
// path — the streamed pipeline over hash indexes, its
// ≤smallRelScanThreshold scan fallback, the dense scan arm, Eval's
// enumeration driver, and the naive reference search — must observe a
// done context within cancelCheckMask+1 node visits.  A path that skips
// Nodes++ or the poll would run arbitrarily far past a timeout.

// cancelChainQuery builds V(X1, Xn+1) :- E(X1, X2), ..., E(Xn, Xn+1).
func cancelChainQuery(n int) *Query {
	var sb strings.Builder
	fmt.Fprintf(&sb, "V(X1, X%d) :- ", n+1)
	for i := 1; i <= n; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "E(X%d, X%d)", i, i+1)
	}
	sb.WriteString(".")
	return MustParse(sb.String())
}

// completeDigraph inserts every edge between distinct vertices of verts.
func completeDigraph(d *instance.Database, verts []int64) {
	for _, a := range verts {
		for _, b := range verts {
			if a != b {
				d.MustInsert("E", val(1, a), val(1, b))
			}
		}
	}
}

// cancelGraph builds two complete components with no path between them,
// so the chain search from component one to component two fans out
// exponentially and exhausts without ever succeeding.  big selects the
// edge count: ≤smallRelScanThreshold for the scan fallback, above it
// for the indexed path.
func cancelGraph(t *testing.T, big bool) *instance.Database {
	t.Helper()
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	if big {
		// 6 + 6 = 12 edges: above the scan threshold, so bound steps
		// probe hash indexes.
		completeDigraph(d, []int64{1, 2, 3})
		completeDigraph(d, []int64{4, 5, 6})
	} else {
		// 6 + 2 = 8 edges: at the threshold, so every step scans.
		completeDigraph(d, []int64{1, 2, 3})
		d.MustInsert("E", val(1, 4), val(1, 5))
		d.MustInsert("E", val(1, 5), val(1, 4))
	}
	n := d.Relation("E").Len()
	if big && n <= smallRelScanThreshold {
		t.Fatalf("big graph has %d edges, not above scan threshold %d", n, smallRelScanThreshold)
	}
	if !big && n > smallRelScanThreshold {
		t.Fatalf("small graph has %d edges, above scan threshold %d", n, smallRelScanThreshold)
	}
	return d
}

// wantAcross asks for a chain from vertex 1 (component one) to vertex 4
// (component two) — unsatisfiable, forcing an exhaustive search.
func wantAcross() instance.Tuple {
	return instance.Tuple{val(1, 1), val(1, 4)}
}

// searchRunner runs one homomorphism search under test.
type searchRunner func(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) searchResult

// onConfig runs the production search under cfg.
func onConfig(t *testing.T, cfg costConfig) searchRunner {
	return func(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) searchResult {
		return searchWith(t, cfg, ctx, q, d, want)
	}
}

func testCancelObserved(t *testing.T, d *instance.Database, chainLen int, run searchRunner) {
	t.Helper()
	q := cancelChainQuery(chainLen)

	// Control: uncancelled, the search must exhaust past the first poll
	// point — otherwise the cancellation assertion below is vacuous.
	r := run(context.Background(), q, d, wantAcross())
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.ok {
		t.Fatal("cross-component chain unexpectedly satisfiable")
	}
	if r.es.Nodes <= cancelCheckMask+1 {
		t.Fatalf("exhaustive search visited %d nodes, need > %d to exercise the poll point",
			r.es.Nodes, cancelCheckMask+1)
	}

	// A context canceled before the search starts must be observed
	// within cancelCheckMask+1 node visits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r = run(ctx, q, d, wantAcross())
	checkCanceled(t, r.es, r.err)
}

// checkCanceled requires a search run under a pre-canceled context to
// report context.Canceled after at least one and at most
// cancelCheckMask+1 node visits.
func checkCanceled(t *testing.T, es EvalStats, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("canceled search returned no error (%d nodes)", es.Nodes)
	}
	if err != context.Canceled {
		t.Fatalf("canceled search returned %v, want context.Canceled", err)
	}
	if es.Nodes > cancelCheckMask+1 {
		t.Fatalf("cancellation observed after %d nodes, contract allows at most %d",
			es.Nodes, cancelCheckMask+1)
	}
	if es.Nodes == 0 {
		t.Fatal("canceled search did no work at all; the poll point was never exercised")
	}
}

// testEvalCancelObserved pins the polling contract on Eval's
// enumeration driver: the chain query's answers over the digraph take
// more than cancelCheckMask+1 nodes to enumerate, and a pre-canceled
// context must stop the enumeration within that many.
func testEvalCancelObserved(t *testing.T, d *instance.Database, chainLen int) {
	t.Helper()
	q := cancelChainQuery(chainLen)
	_, es, err := EvalWithStats(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if es.Nodes <= cancelCheckMask+1 {
		t.Fatalf("enumeration visited %d nodes, need > %d to exercise the poll point",
			es.Nodes, cancelCheckMask+1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	es, err = evalPipeline(ctx, q, d, instance.NewRelation(nil))
	checkCanceled(t, es, err)
}

func TestCancelObservedPlannedScanFallback(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold: every planned step scans.
	testEvalCancelObserved(t, cancelGraph(t, false), 9)
}

func TestCancelObservedPlannedIndexed(t *testing.T) {
	// 12 edges > smallRelScanThreshold: bound steps probe hash indexes.
	testEvalCancelObserved(t, cancelGraph(t, true), 12)
}

func TestCancelObservedNaive(t *testing.T) {
	testCancelObserved(t, cancelGraph(t, false), 9, naiveResult)
}

func TestCancelObservedStreamedScanFallback(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold: the forced pipeline's cursors
	// all scan frozen rows directly.
	testCancelObserved(t, cancelGraph(t, false), 9, onConfig(t, pipelineArmConfig(1)))
}

func TestCancelObservedStreamedIndexed(t *testing.T) {
	// 12 edges > smallRelScanThreshold: bound cursors walk pre-built
	// hash buckets.
	testCancelObserved(t, cancelGraph(t, true), 12, onConfig(t, pipelineArmConfig(1)))
}

func TestCancelObservedAdaptiveScanArm(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold: tier 0 routes the default
	// configuration to the dense scan, which polls inside its own
	// recursion.
	testCancelObserved(t, cancelGraph(t, false), 9, onConfig(t, defaultCostConfig))
}

func TestCancelObservedAdaptivePipeline(t *testing.T) {
	// Above the threshold the adaptive search plans; zeroing the
	// pipeline's costs makes tier 1 choose it, so the poll point under
	// test is the cursor driver's, reached through the real estimate.
	cfg := defaultCostConfig
	cfg.planOverhead = 0
	cfg.indexBuildPerRow = 0
	cfg.nodeCost = 0
	testCancelObserved(t, cancelGraph(t, true), 12, onConfig(t, cfg))
}
