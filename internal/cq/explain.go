package cq

import (
	"keyedeq/internal/instance"
)

// PlanInfo describes the adaptive planner's decision for one query and
// database: which runtime the cost model chose, the executed atom
// order of the pipeline, and the estimates the choice was based on.
// It is the read-only window other layers build on — internal/ra turns
// the atom order back into an optimized algebra expression, tests pin
// threshold edges, and operators can inspect why a query planned the
// way it did.
type PlanInfo struct {
	// Strategy is "scan" (dense dynamic-order scan, no plan built or
	// plan rejected by the estimate), "pipeline" (streamed iterator
	// pipeline), or "pipeline-parallel" (pipeline with components
	// fanned out to a worker pool).
	Strategy string
	// AtomOrder lists body-atom indexes in executed pipeline order,
	// component by component; nil for the scan strategy, whose atom
	// order is chosen dynamically per binding.
	AtomOrder []int
	// Components groups AtomOrder by connected component of the join
	// graph.
	Components [][]int
	// IndexedSteps counts pipeline steps that probe a hash index
	// rather than scanning.
	IndexedSteps int
	// EstPipelineNodes and EstScanNodes are the cost model's tier-1
	// candidate-visit estimates for the two arms (zero when tier 0
	// decided before planning).
	EstPipelineNodes float64
	EstScanNodes     float64
}

// ExplainPlan reports how the adaptive search would run q's enumeration
// over d (constants prebound, head classes free — the Eval planning
// view).  It performs no search.
func ExplainPlan(q *Query, d *instance.Database) (*PlanInfo, error) {
	cfg := &costCfg
	info := &PlanInfo{}
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		info.Strategy = "scan"
		return info, nil
	}
	rels, relIdxs, err := resolveRelations(q, d)
	if err != nil {
		return nil, err
	}
	if allSmall(rels, cfg) {
		info.Strategy = "scan"
		return info, nil
	}
	pres := collectConstPrebindings(q, eq, nil)
	plan := buildPlan(q, rels, relIdxs, eq, pres)
	choice := choosePlan(d.Frozen(), plan, cfg)
	info.EstPipelineNodes, info.EstScanNodes = choice.pipeNodes, choice.scanNodes
	if !choice.usePipeline {
		info.Strategy = "scan"
		return info, nil
	}
	info.Strategy = "pipeline"
	if choice.parallel {
		info.Strategy = "pipeline-parallel"
	}
	for ci := range plan.comps {
		comp := make([]int, 0, len(plan.comps[ci].steps))
		for si := range plan.comps[ci].steps {
			st := &plan.comps[ci].steps[si]
			comp = append(comp, st.atom)
			info.AtomOrder = append(info.AtomOrder, st.atom)
			if st.indexSlot >= 0 {
				info.IndexedSteps++
			}
		}
		info.Components = append(info.Components, comp)
	}
	return info, nil
}
