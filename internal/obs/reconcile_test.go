package obs_test

// Reconciliation tests: the metrics the pipeline exports must agree —
// exactly, not approximately — with the per-job statistics it returns.
// These live in an external test package so they can drive the real
// engine, generator, and search layers against a private Registry
// (internal/obs itself imports nothing from the repo, so there is no
// cycle).

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/exp"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
)

func corpusCases(t *testing.T, family string, pairs, seed int) []exp.HomCase {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	f, err := gen.PairCorpus(rng, family, pairs)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := exp.PrepareHomCases(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatalf("family %s prepared no search cases", family)
	}
	return cases
}

// TestMetamorphicComponentNodes pins the planner's node accounting
// three ways at once: the search span's nodes attribute, the span's
// per-connected-component breakdown, and EvalStats.CompNodes must all
// agree with EvalStats.Nodes on every pipelined search of the wide and
// keyed corpora (searches the cost model sends to the dense scan carry
// no component breakdown, in the span or the stats).  A counting path that skips a component (or double-counts
// one) breaks the equality somewhere in the corpus.
func TestMetamorphicComponentNodes(t *testing.T) {
	pairs := 500
	if testing.Short() {
		pairs = 60
	}
	for _, family := range []string{"wide", "keyed"} {
		t.Run(family, func(t *testing.T) {
			cases := corpusCases(t, family, pairs, 21)
			reg := obs.NewRegistry()
			sink := &obs.CollectSink{}
			ctx := obs.NewContext(context.Background(), &obs.Obs{Reg: reg, Sink: sink})

			var total int64
			scanned := 0
			for ci, c := range cases {
				sink.Reset()
				_, _, es, err := cq.FindAnswerBindingCtx(ctx, c.Q, c.DB, c.Want)
				if err != nil {
					t.Fatalf("case %d: %v", ci, err)
				}
				spans := sink.Stage(obs.StageSearch)
				if len(spans) != 1 {
					t.Fatalf("case %d: %d search spans, want exactly 1", ci, len(spans))
				}
				sp := spans[0]
				nodes, ok := sp.IntAttr("nodes")
				if !ok {
					t.Fatalf("case %d: search span lacks a nodes attribute", ci)
				}
				if nodes != es.Nodes {
					t.Fatalf("case %d: span nodes %d, EvalStats.Nodes %d", ci, nodes, es.Nodes)
				}
				var compSum int64
				nComp := 0
				for {
					v, ok := sp.IntAttr("comp_nodes_" + strconv.Itoa(nComp))
					if !ok {
						break
					}
					compSum += v
					nComp++
				}
				if nComp == 0 {
					// The dense scan arm has no plan, hence no component
					// breakdown: its span and stats must both say so.
					if len(es.CompNodes) != 0 {
						t.Fatalf("case %d: EvalStats has %d components, span has none", ci, len(es.CompNodes))
					}
					scanned++
					total += es.Nodes
					continue
				}
				if compSum != es.Nodes {
					t.Fatalf("case %d: components sum to %d nodes, search reports %d", ci, compSum, es.Nodes)
				}
				if len(es.CompNodes) != nComp {
					t.Fatalf("case %d: EvalStats has %d components, span has %d", ci, len(es.CompNodes), nComp)
				}
				var esSum int64
				for _, n := range es.CompNodes {
					esSum += n
				}
				if esSum != es.Nodes {
					t.Fatalf("case %d: EvalStats.CompNodes sum to %d, Nodes is %d", ci, esSum, es.Nodes)
				}
				total += es.Nodes
			}

			// The keyed corpus's canonical databases all sit under the
			// tier-0 scan bound, so it pins the scan arm's accounting;
			// the wide corpus must exercise the pipeline's.
			if family == "wide" && scanned == len(cases) {
				t.Fatal("every wide search ran the scan arm; component accounting untested")
			}

			// The search funnel's counters must equal the per-search sums.
			if got := reg.C(obs.CSearchNodes).Value(); got != total {
				t.Errorf("search-node counter = %d, per-search stats sum to %d", got, total)
			}
			if got := reg.C(obs.CSearches).Value(); got != int64(len(cases)) {
				t.Errorf("search counter = %d, ran %d searches", got, len(cases))
			}
			if got := reg.H(obs.HSearchNodes).Count(); got != int64(len(cases)) {
				t.Errorf("search-node histogram holds %d observations, want %d", got, len(cases))
			}
			if got := reg.H(obs.HSearchNodes).Sum(); got != total {
				t.Errorf("search-node histogram sums to %d, want %d", got, total)
			}
		})
	}
}

// TestBatchMetricsReconcile is the end-to-end smoke check the
// observability layer is gated on: run a generated corpus through the
// engine with metrics enabled and require the exported totals to equal
// the sums of the per-job Stats the report carries.  Fresh results —
// neither cache hits nor intra-batch duplicates, errors included — are
// exactly the ones whose Stats describe new work, so their sums and
// the counters must match to the node.  A second identical batch must
// be all cache hits and must not move any work counter.
func TestBatchMetricsReconcile(t *testing.T) {
	pairs := 120
	if testing.Short() {
		pairs = 40
	}
	for _, family := range []string{"keyed", "graph-mixed", "wide"} {
		t.Run(family, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			f, err := gen.PairCorpus(rng, family, pairs)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			e := engine.New(f.Schema, f.Deps, engine.Options{Workers: 4, Obs: &obs.Obs{Reg: reg}})
			jobs := make([]engine.Job, len(f.Pairs))
			for i, p := range f.Pairs {
				jobs[i] = engine.Job{Left: p.Left, Right: p.Right, Op: engine.OpEquivalent}
			}

			rep := e.Run(context.Background(), jobs)
			var fresh containment.Stats
			var holding, errs, hits, dedup, computed int64
			for i, r := range rep.Results {
				if r.Err != nil {
					t.Fatalf("job %d: %v (generated corpora must be decidable)", i, r.Err)
				}
				switch {
				case r.Err != nil:
					errs++
				case r.CacheHit:
					hits++
				case r.Deduped:
					dedup++
				default:
					computed++
				}
				if r.Err == nil && r.Holds {
					holding++
				}
				if !r.CacheHit && !r.Deduped {
					fresh.Merge(r.Stats)
				}
			}

			snap := reg.Snapshot()
			want := map[string]int64{
				"keyedeq_pairs_total":            int64(len(jobs)),
				"keyedeq_pairs_holding_total":    holding,
				"keyedeq_pairs_errors_total":     errs,
				"keyedeq_cache_hits_total":       hits,
				"keyedeq_pairs_deduped_total":    dedup,
				"keyedeq_pairs_computed_total":   computed,
				"keyedeq_searches_total":         int64(fresh.Searches),
				"keyedeq_search_nodes_total":     fresh.Nodes,
				"keyedeq_chase_iterations_total": int64(fresh.ChaseIterations),
				"keyedeq_chase_merges_total":     int64(fresh.ChaseMerges),
				"keyedeq_chase_revisited_total":  int64(fresh.ChaseRevisited),
			}
			for name, w := range want {
				if snap[name] != w {
					t.Errorf("%s = %d, per-job stats sum to %d", name, snap[name], w)
				}
			}
			if snap["keyedeq_cache_entries"] != int64(rep.Cache.Entries) {
				t.Errorf("cache-entries gauge = %d, report says %d", snap["keyedeq_cache_entries"], rep.Cache.Entries)
			}

			// Re-running the identical batch must be pure cache traffic:
			// verdicts unchanged, every work counter frozen.
			rep2 := e.Run(context.Background(), jobs)
			for i, r := range rep2.Results {
				if r.Err != nil || !r.CacheHit {
					t.Fatalf("job %d of repeat batch: err=%v cacheHit=%v, want a clean hit", i, r.Err, r.CacheHit)
				}
				if r.Holds != rep.Results[i].Holds {
					t.Fatalf("job %d flipped verdict across the cache: %v vs %v", i, rep.Results[i].Holds, r.Holds)
				}
			}
			snap2 := reg.Snapshot()
			for _, name := range []string{
				"keyedeq_searches_total", "keyedeq_search_nodes_total",
				"keyedeq_chase_runs_total", "keyedeq_chase_iterations_total",
				"keyedeq_pairs_computed_total",
			} {
				if snap2[name] != snap[name] {
					t.Errorf("%s moved from %d to %d across an all-hit batch", name, snap[name], snap2[name])
				}
			}
			if got, w := snap2["keyedeq_cache_hits_total"], hits+int64(len(jobs)); got != w {
				t.Errorf("cache-hit counter = %d after repeat batch, want %d", got, w)
			}
			if got, w := snap2["keyedeq_pairs_total"], int64(2*len(jobs)); got != w {
				t.Errorf("pair counter = %d after repeat batch, want %d", got, w)
			}

			// The same totals must survive text exposition.
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			text := buf.String()
			for _, line := range []string{
				fmt.Sprintf("keyedeq_pairs_total %d", snap2["keyedeq_pairs_total"]),
				fmt.Sprintf("keyedeq_search_nodes_total %d", snap2["keyedeq_search_nodes_total"]),
				fmt.Sprintf("keyedeq_chase_iterations_total %d", snap2["keyedeq_chase_iterations_total"]),
			} {
				if !strings.Contains(text, line) {
					t.Errorf("prometheus exposition lacks %q", line)
				}
			}
		})
	}
}
