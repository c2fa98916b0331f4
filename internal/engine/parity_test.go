package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
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

// distinctPresentations counts the printed forms among the queries of
// the batch's comparable jobs — the number of canonicalizations Run may
// perform.
func distinctPresentations(jobs []Job, s *schema.Schema) int {
	seen := make(map[string]bool)
	for _, j := range jobs {
		if containment.CheckComparable(j.Left, j.Right, s) != nil {
			continue
		}
		seen[j.Left.String()] = true
		seen[j.Right.String()] = true
	}
	return len(seen)
}

// errorBatch mixes a keyed corpus's valid jobs with incomparable ones:
// an unknown relation on either side, a reused placeholder, an arity
// mismatch, a head-type mismatch, and both sides invalid.  One query
// object is shared by valid and invalid jobs, and one valid query occurs
// only in invalid jobs, so it must never be canonicalized.  Jobs
// alternate OpEquivalent and OpContained.
func errorBatch(t *testing.T) ([]Job, *gen.Family) {
	t.Helper()
	f, err := gen.PairCorpus(rand.New(rand.NewSource(41)), "keyed", 12)
	if err != nil {
		t.Fatal(err)
	}
	var (
		shared   = f.Pairs[0].Left
		unknown  = cq.MustParse("V(X) :- Z(X, Y).")
		reused   = cq.MustParse("V(X) :- R(X, Y), S(Y, W).")
		binary   = cq.MustParse("V(X, A) :- R(X, A).")
		t2Head   = cq.MustParse("V(A) :- R(K, A).")
		onlyHere = cq.MustParse("V(X) :- R(X, Y), Y = T2:99.")
	)
	var jobs []Job
	for i, p := range f.Pairs {
		jobs = append(jobs, Job{Left: p.Left, Right: p.Right, Op: Op(i % 2)})
		switch i {
		case 1:
			jobs = append(jobs, Job{Left: unknown, Right: shared})
		case 3:
			jobs = append(jobs, Job{Left: shared, Right: unknown, Op: OpContained})
		case 5:
			jobs = append(jobs, Job{Left: reused, Right: p.Right})
		case 7:
			jobs = append(jobs, Job{Left: shared, Right: binary})
		case 9:
			jobs = append(jobs, Job{Left: t2Head, Right: shared, Op: OpContained})
		case 10:
			jobs = append(jobs, Job{Left: unknown, Right: reused}, Job{Left: onlyHere, Right: t2Head})
		}
	}
	// Close with a valid job over the shared object and a repeat of a
	// valid job over clones, which Run dedupes.
	jobs = append(jobs, Job{Left: shared, Right: f.Pairs[1].Right},
		Job{Left: f.Pairs[2].Left.Clone(), Right: f.Pairs[2].Right.Clone()})
	return jobs, f
}

// TestRunParityAcrossWorkerCounts checks that the pool size is
// unobservable: the same batch run at 1, 2 and 8 workers yields
// identical Results, an identical Report (bar its Workers field) and
// identical registry deltas, and canonicalizes each distinct
// presentation of a comparable job exactly once.  Every job's error is
// the one containment.CheckComparable gives for its pair.  Run it under
// -race to cover the check, keying and compute phases' sharing.
func TestRunParityAcrossWorkerCounts(t *testing.T) {
	type batch struct {
		name string
		jobs []Job
		f    *gen.Family
	}
	var batches []batch
	for fi, family := range []string{"keyed", "graph-long", "wide"} {
		jobs, f := parityBatch(t, rand.New(rand.NewSource(int64(31+fi))), family, 40)
		batches = append(batches, batch{family, jobs, f})
	}
	jobs, f := errorBatch(t)
	batches = append(batches, batch{"keyed with errors", jobs, f})
	for _, b := range batches {
		wantErrs := 0
		for _, j := range b.jobs {
			if containment.CheckComparable(j.Left, j.Right, b.f.Schema) != nil {
				wantErrs++
			}
		}
		var (
			base     *Report
			baseSnap map[string]int64
		)
		for _, workers := range []int{1, 2, 8} {
			reg := obs.NewRegistry()
			e := New(b.f.Schema, b.f.Deps, Options{Workers: workers, Obs: &obs.Obs{Reg: reg}})
			rep := e.Run(context.Background(), b.jobs)
			snap := reg.Snapshot()
			if got, want := snap["keyedeq_canonicalizations_total"], int64(distinctPresentations(b.jobs, b.f.Schema)); got != want {
				t.Errorf("%s, %d workers: %d canonicalizations, want one per distinct comparable presentation (%d)",
					b.name, workers, got, want)
			}
			if rep.Errors != wantErrs || rep.Deduped == 0 {
				t.Fatalf("%s, %d workers: %d errors, %d deduped; want %d errors and a batch that exercises dedupe",
					b.name, workers, rep.Errors, rep.Deduped, wantErrs)
			}
			for i, j := range b.jobs {
				want := containment.CheckComparable(j.Left, j.Right, b.f.Schema)
				if got := rep.Results[i].Err; (got == nil) != (want == nil) || (want != nil && got.Error() != want.Error()) {
					t.Errorf("%s, %d workers, job %d (%s vs %s): error %v, CheckComparable gives %v",
						b.name, workers, i, j.Left, j.Right, got, want)
				}
			}
			if rep.Workers != workers {
				t.Fatalf("%s: report says %d workers, ran with %d", b.name, rep.Workers, workers)
			}
			rep.Workers = 0
			if base == nil {
				base, baseSnap = rep, snap
				continue
			}
			for i := range b.jobs {
				if !reflect.DeepEqual(rep.Results[i], base.Results[i]) {
					t.Errorf("%s job %d (%s vs %s): %d workers give %+v, 1 worker gives %+v",
						b.name, i, b.jobs[i].Left, b.jobs[i].Right, workers, rep.Results[i], base.Results[i])
				}
			}
			if !reflect.DeepEqual(rep, base) {
				t.Errorf("%s: report at %d workers differs from 1 worker", b.name, workers)
			}
			if !reflect.DeepEqual(snap, baseSnap) {
				for name, v := range baseSnap {
					if snap[name] != v {
						t.Errorf("%s: %s = %d at %d workers, %d at 1 worker", b.name, name, snap[name], workers, v)
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
