package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
)

// parityBatch draws a gen.PairCorpus batch and thickens it the way real
// batches repeat themselves: every third job is followed by a repeat of
// the same query objects under the other op, and every fifth by a job
// over fresh clones of its queries (pointer-distinct, textually
// identical).
func parityBatch(t *testing.T, rng *rand.Rand, family string, n int) ([]Job, *gen.Family) {
	t.Helper()
	f, err := gen.PairCorpus(rng, family, n)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for i, p := range f.Pairs {
		op := OpEquivalent
		if i%4 == 3 {
			op = OpContained
		}
		jobs = append(jobs, Job{Left: p.Left, Right: p.Right, Op: op})
		if i%3 == 0 {
			jobs = append(jobs, Job{Left: p.Left, Right: p.Right, Op: OpContained - op})
		}
		if i%5 == 0 {
			jobs = append(jobs, Job{Left: p.Left.Clone(), Right: p.Right.Clone(), Op: op})
		}
	}
	return jobs, f
}

// distinctPresentations counts the printed forms among the batch's
// queries — the number of canonicalizations Run may perform.
func distinctPresentations(jobs []Job) int {
	seen := make(map[string]bool)
	for _, j := range jobs {
		seen[j.Left.String()] = true
		seen[j.Right.String()] = true
	}
	return len(seen)
}

// TestRunParityAcrossWorkerCounts checks that the pool size is
// unobservable: the same batch run at 1, 2 and 8 workers yields
// identical Results, an identical Report (bar its Workers field) and
// identical registry deltas, and canonicalizes each distinct
// presentation exactly once.  Run it under -race to cover the keying
// and compute phases' sharing.
func TestRunParityAcrossWorkerCounts(t *testing.T) {
	for fi, family := range []string{"keyed", "graph-long", "wide"} {
		jobs, f := parityBatch(t, rand.New(rand.NewSource(int64(31+fi))), family, 40)
		var (
			base     *Report
			baseSnap map[string]int64
		)
		for _, workers := range []int{1, 2, 8} {
			reg := obs.NewRegistry()
			e := New(f.Schema, f.Deps, Options{Workers: workers, Obs: &obs.Obs{Reg: reg}})
			rep := e.Run(context.Background(), jobs)
			snap := reg.Snapshot()
			if got, want := snap["keyedeq_canonicalizations_total"], int64(distinctPresentations(jobs)); got != want {
				t.Errorf("%s, %d workers: %d canonicalizations, want one per distinct presentation (%d)",
					family, workers, got, want)
			}
			if rep.Errors != 0 || rep.Deduped == 0 {
				t.Fatalf("%s, %d workers: %d errors, %d deduped; want a clean batch that exercises dedupe",
					family, workers, rep.Errors, rep.Deduped)
			}
			if rep.Workers != workers {
				t.Fatalf("%s: report says %d workers, ran with %d", family, rep.Workers, workers)
			}
			rep.Workers = 0
			if base == nil {
				base, baseSnap = rep, snap
				continue
			}
			for i := range jobs {
				if !reflect.DeepEqual(rep.Results[i], base.Results[i]) {
					t.Errorf("%s job %d (%s vs %s): %d workers give %+v, 1 worker gives %+v",
						family, i, jobs[i].Left, jobs[i].Right, workers, rep.Results[i], base.Results[i])
				}
			}
			if !reflect.DeepEqual(rep, base) {
				t.Errorf("%s: report at %d workers differs from 1 worker", family, workers)
			}
			if !reflect.DeepEqual(snap, baseSnap) {
				for name, v := range baseSnap {
					if snap[name] != v {
						t.Errorf("%s: %s = %d at %d workers, %d at 1 worker", family, name, snap[name], workers, v)
					}
				}
			}
		}
	}
}

// TestFanOutCoversEveryIndexOnce checks the pool helper calls each index
// exactly once at any worker count, inline when sequential.
func TestFanOutCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		for _, n := range []int{0, 1, 7, 100} {
			hits := make([]int, n)
			fanOut(workers, n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers %d, n %d: index %d called %d times", workers, n, i, h)
				}
			}
		}
	}
	order := []int{}
	fanOut(1, 5, func(i int) { order = append(order, i) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("sequential fan-out ran out of order: %v", order)
	}
}
