package exp

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/instance"
	"keyedeq/internal/value"
)

// Benchmarks comparing the naive oracle against the adaptive default
// on the H1 corpus families.  On the small-instance families the
// per-search prologue dominates wall time.

func homBenchCases(b *testing.B, fam string) []HomCase {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	f, err := gen.PairCorpus(rng, fam, 50)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := PrepareHomCases(f)
	if err != nil {
		b.Fatal(err)
	}
	return cases
}

// BenchmarkHomSearch times the adaptive default against the naive
// oracle on every corpus family, one sub-benchmark per family and arm
// (for example -bench 'HomSearch/wide/').
func BenchmarkHomSearch(b *testing.B) {
	arms := []struct {
		name   string
		search func(context.Context, *cq.Query, *instance.Database, instance.Tuple) (bool, map[cq.Var]value.Value, cq.EvalStats, error)
	}{
		{"adaptive", cq.FindAnswerBindingCtx},
		{"naive", cq.FindAnswerBindingNaive},
	}
	for _, fam := range gen.FamilyNames() {
		for _, arm := range arms {
			b.Run(fam+"/"+arm.name, func(b *testing.B) {
				cases := homBenchCases(b, fam)
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, c := range cases {
						if _, _, _, err := arm.search(ctx, c.Q, c.DB, c.Want); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
