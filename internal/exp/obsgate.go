package exp

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
)

// ObsGateResult is the observability overhead gate's machine-readable
// record: the same default-runtime (adaptive) searches are timed with a
// plain context and
// with metrics collection enabled, interleaved, and the minima
// compared.  Node totals are tracked per family so the gate can also
// prove the instrumentation did not change search behavior against the
// committed H1 record.
type ObsGateResult struct {
	Trials int `json:"trials"`
	// PlainNs and ObsNs are the minimum wall time over the trials for
	// each arm.
	PlainNs int64 `json:"plain_wall_ns"`
	ObsNs   int64 `json:"obs_wall_ns"`
	// Overhead (1.0 = free) is ObsNs over PlainNs.  Scheduler and GC
	// noise on a shared box is strictly additive, so the minimum over
	// enough interleaved trials converges to the true cost of each arm
	// and the ratio of minima isolates the instrumentation; per-trial
	// ratios, by contrast, swing with whatever interference hit that
	// trial.  MedianRatio is kept alongside for diagnostics.
	Overhead    float64 `json:"overhead"`
	MedianRatio float64 `json:"median_trial_ratio"`
	// Nodes is the planned node total of one pass over every case; both
	// arms must produce it identically.
	Nodes int64 `json:"nodes"`
	// Searches is the case count of one pass.
	Searches int `json:"searches"`
	// FamilyNodes maps family name to its planned node total, for
	// cross-checking against HomFamilyResult.PlannedNodes.
	FamilyNodes map[string]int64 `json:"family_planned_nodes"`
	// Reconciled reports the exported search counters matched the
	// per-search sums exactly across every observed trial.
	Reconciled bool `json:"reconciled"`
}

// ObsOverheadGate measures what metrics collection costs the default
// (adaptive) homomorphism search, the hottest instrumented path.  It
// must run the same search as H1HomSearch's measured arm, or the
// FamilyNodes cross-check against the committed record breaks.  It prepares the
// same corpus H1HomSearch uses (same seed convention), then alternates
// trials of the full case list between a plain context (the unobserved
// fast path) and a metrics-only observer (counters and histograms, no
// span sink).  Alternation keeps cache and thermal drift from loading
// one arm; the minima are compared.
func ObsOverheadGate(pairsPerFamily, seed, trials int) (*Table, *ObsGateResult, error) {
	t := &Table{
		ID:      "O1",
		Title:   "observability overhead (planned search, metrics on vs off)",
		Columns: []string{"trial", "plain wall", "observed wall"},
	}
	type famCases struct {
		name  string
		cases []HomCase
	}
	var fams []famCases
	for fi, fam := range gen.FamilyNames() {
		rng := rand.New(rand.NewSource(int64(seed + fi)))
		f, err := gen.PairCorpus(rng, fam, pairsPerFamily)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", fam, err)
		}
		cases, err := PrepareHomCases(f)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: prepare: %v", fam, err)
		}
		fams = append(fams, famCases{name: fam, cases: cases})
	}

	res := &ObsGateResult{Trials: trials, FamilyNodes: make(map[string]int64)}
	runAll := func(ctx context.Context, perFamily bool) (int64, error) {
		var total int64
		for _, fc := range fams {
			var famTotal int64
			for _, c := range fc.cases {
				_, _, st, err := cq.FindAnswerBindingCtx(ctx, c.Q, c.DB, c.Want)
				if err != nil {
					return 0, fmt.Errorf("%s: %v", fc.name, err)
				}
				famTotal += st.Nodes
			}
			if perFamily {
				res.FamilyNodes[fc.name] = famTotal
			}
			total += famTotal
		}
		return total, nil
	}

	// One untimed warmup pass per arm populates allocator caches and the
	// branch predictor before anything is measured, and records the
	// reference node totals.
	plainNodes, err := runAll(context.Background(), true)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	obsCtx := obs.NewContext(context.Background(), &obs.Obs{Reg: reg})
	obsNodes, err := runAll(obsCtx, false)
	if err != nil {
		return nil, nil, err
	}
	if plainNodes != obsNodes {
		return nil, nil, fmt.Errorf("metrics changed the search: %d nodes observed, %d plain", obsNodes, plainNodes)
	}
	res.Nodes = plainNodes
	for _, fc := range fams {
		res.Searches += len(fc.cases)
	}

	// Each timed sample is several consecutive passes: longer samples
	// keep scheduler interruptions small relative to what is measured.
	const passesPerSample = 3
	var minPlain, minObs time.Duration
	ratios := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		var terr error
		runPlain := func() time.Duration {
			return timed(func() {
				for p := 0; p < passesPerSample && terr == nil; p++ {
					_, terr = runAll(context.Background(), false)
				}
			})
		}
		runObs := func() time.Duration {
			return timed(func() {
				for p := 0; p < passesPerSample && terr == nil; p++ {
					_, terr = runAll(obsCtx, false)
				}
			})
		}
		// Alternate which arm goes first so per-trial drift (GC debt,
		// frequency scaling) cannot systematically favor one arm.
		var plain, observed time.Duration
		if i%2 == 0 {
			plain, observed = runPlain(), runObs()
		} else {
			observed, plain = runObs(), runPlain()
		}
		if terr != nil {
			return nil, nil, terr
		}
		if i == 0 || plain < minPlain {
			minPlain = plain
		}
		if i == 0 || observed < minObs {
			minObs = observed
		}
		if plain > 0 {
			ratios = append(ratios, float64(observed)/float64(plain))
		}
		t.Add(i+1, plain, observed)
	}
	res.PlainNs = minPlain.Nanoseconds()
	res.ObsNs = minObs.Nanoseconds()
	if res.PlainNs > 0 {
		res.Overhead = float64(res.ObsNs) / float64(res.PlainNs)
	}
	sort.Float64s(ratios)
	if n := len(ratios); n > 0 {
		res.MedianRatio = ratios[n/2]
		if n%2 == 0 {
			res.MedianRatio = (ratios[n/2-1] + ratios[n/2]) / 2
		}
	}

	// Every observed pass ran the same cases, so the counters must hold
	// exact multiples of the single-pass totals: passesPerSample per
	// timed trial plus the warmup.
	passes := int64(trials)*passesPerSample + 1
	res.Reconciled = reg.C(obs.CSearchNodes).Value() == passes*res.Nodes &&
		reg.C(obs.CSearches).Value() == passes*int64(res.Searches)
	t.Note("min plain %s, min observed %s, overhead %.4fx (median trial ratio %.4fx), %d searches/pass, reconciled %v",
		minPlain.Round(time.Microsecond), minObs.Round(time.Microsecond),
		res.Overhead, res.MedianRatio, res.Searches, res.Reconciled)
	return t, res, nil
}
