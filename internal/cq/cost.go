package cq

import (
	"runtime"

	"keyedeq/internal/instance"
)

// This file is the cost model behind the adaptive search: a cheap,
// plan-time estimate that chooses, per query and database, between the
// streamed iterator pipeline (iter.go) and the dense ID scan
// (scan_id.go), and decides when the plan's connected components
// are worth searching in parallel (parallel.go).
//
// The model has two tiers.  Tier 0 runs before any plan is built: when
// every relation the query touches is at or under the plan's scan
// threshold, no step would ever build an index, so the pipeline
// degenerates to static-order scans while still paying plan
// compilation — the dynamic-order dense scan wins outright and the
// plan is skipped entirely.  (This is exactly the regime where the
// one-size-fits-all plan used to lose to naive on the graph-star
// corpus family.)  Tier 1 runs after planning: a frontier-product walk
// over each component's steps estimates candidates visited with and
// without indexes — per-probe bucket sizes come from the frozen view's
// per-column distinct counts — and the pipeline must beat the scan by
// enough to cover plan compilation and index builds.

// costConfig bundles the model's tunables.  The package-level costCfg
// is read by every adaptive search; tests override it (in-package,
// serially) to pin tie-break and threshold edges.
type costConfig struct {
	// scanMaxCard is the tier-0 bound: when every referenced relation
	// has at most this many tuples, the dense scan runs without
	// planning.  It matches smallRelScanThreshold — the cardinality at
	// which the planner itself refuses to build an index.
	scanMaxCard int
	// planOverhead is the fixed cost (in candidate-visit units) of
	// compiling a plan and setting up the pipeline searcher.
	planOverhead float64
	// indexBuildPerRow is the per-row cost of filling a hash index.
	indexBuildPerRow float64
	// nodeCost and scanNodeCost weight one visited candidate in the
	// pipeline and the dense scan respectively.
	nodeCost     float64
	scanNodeCost float64
	// distinctMinRows bounds when the model pays for real per-column
	// distinct counts: relations at or under it use the worst-case
	// estimate (every probe scans the whole relation), which keeps tiny
	// inputs off the statistics path entirely.
	distinctMinRows int
	// frontierCap clamps the estimated number of live partial matches,
	// keeping the walk numerically tame on pathological shapes.
	frontierCap float64
	// parallelMinComps and parallelMinNodes gate component
	// parallelism: at least this many components, of which at least
	// two carry this much estimated pipeline work.
	parallelMinComps int
	parallelMinNodes float64
	// parallelWorkers overrides the worker bound (0 means
	// runtime.GOMAXPROCS(0)); tests force the parallel path with it on
	// single-core machines.
	parallelWorkers int
}

var defaultCostConfig = costConfig{
	scanMaxCard:      smallRelScanThreshold,
	planOverhead:     32,
	indexBuildPerRow: 1,
	nodeCost:         1,
	scanNodeCost:     1,
	distinctMinRows:  smallRelScanThreshold,
	frontierCap:      1 << 20,
	parallelMinComps: 2,
	parallelMinNodes: 2048,
}

// costCfg is the live configuration.  Set it at startup or from tests
// only — concurrent mutation during a run is not supported.
var costCfg = defaultCostConfig

// planChoice is the model's verdict for one query/database pair.
type planChoice struct {
	usePipeline bool
	parallel    bool
	workers     int
	// pipeNodes and scanNodes are the estimated candidate visits of
	// the two arms; buildRows the total index-build row count.
	pipeNodes, scanNodes, buildRows float64
	// compNodes holds the per-component pipeline estimates.
	compNodes []float64
}

// allSmall reports the tier-0 condition: every resolved relation at or
// under the scan threshold.
func allSmall(rels []*instance.Relation, cfg *costConfig) bool {
	for _, r := range rels {
		if r.Len() > cfg.scanMaxCard {
			return false
		}
	}
	return true
}

// stepSelectivity estimates how many of a step's candidate rows
// survive the equality filter on its bound key positions.  Above the
// statistics threshold it divides cardinality by the product of the
// key columns' distinct counts (capped at cardinality, floored at one
// expected match); below it, it conservatively assumes nothing filters.
func stepSelectivity(fr *instance.FrozenRelation, st *planStep, cfg *costConfig) float64 {
	card := float64(fr.NumRows())
	if len(st.keyPos) == 0 || fr.NumRows() <= cfg.distinctMinRows {
		return card
	}
	distinct := 1.0
	for _, p := range st.keyPos {
		if d := fr.DistinctAt(p); d > 1 {
			distinct *= float64(d)
		}
		if distinct >= card {
			break
		}
	}
	if distinct > card {
		distinct = card
	}
	sel := card / distinct
	if sel < 1 {
		sel = 1
	}
	return sel
}

// estimateComponent walks one component's steps front to back,
// carrying the expected number of live partial matches (the frontier)
// and summing candidates visited.  With indexed=true, steps holding an
// index slot visit only their expected bucket; without, every step
// visits the whole relation — the difference is exactly what the
// indexes buy.
func estimateComponent(fz *instance.Frozen, comp *planComponent, indexed bool, cfg *costConfig) float64 {
	frontier := 1.0
	nodes := 0.0
	for si := range comp.steps {
		st := &comp.steps[si]
		fr := fz.Relations[st.relIdx]
		card := float64(fr.NumRows())
		sel := stepSelectivity(fr, st, cfg)
		if indexed && st.indexSlot >= 0 {
			nodes += frontier * sel
		} else {
			nodes += frontier * card
		}
		frontier *= sel
		if frontier > cfg.frontierCap {
			frontier = cfg.frontierCap
		}
	}
	return nodes
}

// choosePlan runs the tier-1 estimate over a compiled plan and decides
// pipeline vs scan and sequential vs parallel.
func choosePlan(fz *instance.Frozen, plan *searchPlan, cfg *costConfig) planChoice {
	var c planChoice
	c.compNodes = make([]float64, len(plan.comps))
	slotCounted := make([]bool, plan.numSlots)
	for ci := range plan.comps {
		comp := &plan.comps[ci]
		c.compNodes[ci] = estimateComponent(fz, comp, true, cfg)
		c.pipeNodes += c.compNodes[ci]
		c.scanNodes += estimateComponent(fz, comp, false, cfg)
		for si := range comp.steps {
			st := &comp.steps[si]
			if st.indexSlot >= 0 && !slotCounted[st.indexSlot] {
				slotCounted[st.indexSlot] = true
				c.buildRows += float64(fz.Relations[st.relIdx].NumRows())
			}
		}
	}
	pipeCost := cfg.planOverhead + c.buildRows*cfg.indexBuildPerRow + c.pipeNodes*cfg.nodeCost
	scanCost := c.scanNodes * cfg.scanNodeCost
	// Ties go to the scan: it has no setup to amortize.
	c.usePipeline = pipeCost < scanCost
	if !c.usePipeline {
		return c
	}
	workers := cfg.parallelWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan.comps) {
		workers = len(plan.comps)
	}
	if workers > 1 && len(plan.comps) >= cfg.parallelMinComps {
		heavy := 0
		for _, n := range c.compNodes {
			if n >= cfg.parallelMinNodes {
				heavy++
			}
		}
		if heavy >= 2 {
			c.parallel = true
			c.workers = workers
		}
	}
	return c
}
