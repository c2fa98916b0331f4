package cq

import (
	"context"

	"keyedeq/internal/instance"
	"keyedeq/internal/value"
)

// This file is the homomorphism search's dispatcher — the one
// production search.  It consults the cost model (cost.go) to choose,
// per query and database, between the dense scan (scan_id.go) and the streamed
// iterator pipeline (iter.go), and fans the pipeline's connected
// components out to a bounded worker pool (parallel.go) when the model
// says the work justifies it.

// findAnswerAdaptive is the search behind FindAnswerBindingCtx.
func findAnswerAdaptive(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	cfg := &costCfg
	var stats EvalStats
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		return false, nil, stats, nil
	}
	rels, relIdxs, err := resolveRelations(q, d)
	if err != nil {
		return false, nil, stats, err
	}
	// Tier 0: with every referenced relation under the scan threshold,
	// no plan step would build an index — skip planning entirely and
	// run the dynamic-order dense scan.  This is the common case for
	// containment checks, whose canonical databases hold one tuple per
	// query atom.
	if allSmall(rels, cfg) {
		return scanIDCore(ctx, q, want, eq, rels)
	}
	pres, earlyMiss := streamPrebindings(q, eq, want)
	if earlyMiss {
		return false, nil, stats, nil
	}
	fz := d.Frozen()
	// The compiled plan is a pure function of the query and the frozen
	// view's cardinalities: pres enters compilation only as the SET of
	// prebound classes (head and constant classes, fixed by the query
	// alone), never as values.  Repeated decisions against one frozen
	// database therefore share a single compilation through the view's
	// prepared-plan cache; the plan-stage span is emitted on the cold
	// build only.
	plan := fz.PlanMemo(q, func() any {
		return buildStreamPlan(ctx, q, rels, relIdxs, eq, pres)
	}).(*searchPlan)
	// Tier 1: estimate both arms over the compiled plan; fall back to
	// the scan when the indexes can't pay for plan compilation and
	// index builds.
	choice := choosePlan(fz, plan, cfg)
	if !choice.usePipeline {
		return scanIDCore(ctx, q, want, eq, rels)
	}
	s := newStreamSearcher(ctx, plan, fz, &stats)
	s.prebind(pres)
	var ok bool
	if choice.parallel {
		ok, err = runComponentsParallel(s, plan, choice.workers)
	} else {
		ok, err = runComponentsSequential(s, plan)
	}
	if err != nil || !ok {
		return false, nil, stats, err
	}
	return true, decodeWitness(s, plan, q, eq), stats, nil
}
