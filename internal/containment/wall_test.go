package containment

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
)

// This file is the search's differential wall: every corpus pair of
// every schema family is decided by the production search (the
// cost-planned adaptive runtime, cq.FindAnswerBindingCtx) and by the
// naive reference search (cq.FindAnswerBindingNaive), through the same
// freeze-chase-search core.  Verdicts must agree, the search-independent
// chase accounting must agree, and every homomorphism either search
// extracts must verify symbolically.

// wallPairs is the per-family corpus size of the wall.
const wallPairs = 500

// TestPlannedVsNaiveVerdicts decides every corpus pair with both
// searches.  Node counts are deliberately not compared: the adaptive
// runtime picks its arm per query, and an empty index bucket can
// refute containment without visiting a tuple.  The benchmark record
// tracks nodes in aggregate.
func TestPlannedVsNaiveVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range gen.FamilyNames() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + fi)))
			f, err := gen.PairCorpus(rng, fam, wallPairs)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			pos := 0
			for i, p := range f.Pairs {
				planned, stP, err := equivalentUnder(ctx, p.Left, p.Right, f.Schema, f.Deps, cq.FindAnswerBindingCtx)
				if err != nil {
					t.Fatalf("pair %d (%s): planned: %v", i, p.Note, err)
				}
				naive, stN, err := equivalentUnder(ctx, p.Left, p.Right, f.Schema, f.Deps, cq.FindAnswerBindingNaive)
				if err != nil {
					t.Fatalf("pair %d (%s): naive: %v", i, p.Note, err)
				}
				if planned != naive {
					t.Fatalf("pair %d (%s): planned=%v naive=%v\n  left  %s\n  right %s",
						i, p.Note, planned, naive, p.Left, p.Right)
				}
				if stP.ChaseIterations != stN.ChaseIterations || stP.ChaseMerges != stN.ChaseMerges ||
					stP.ChaseRevisited != stN.ChaseRevisited || stP.ChaseFailed != stN.ChaseFailed ||
					stP.Searches != stN.Searches {
					t.Fatalf("pair %d (%s): search-independent stats diverge\n  planned %+v\n  naive   %+v",
						i, p.Note, stP, stN)
				}
				if planned {
					pos++
				}
			}
			if pos == 0 || pos == len(f.Pairs) {
				t.Fatalf("degenerate corpus: %d/%d positive verdicts", pos, len(f.Pairs))
			}
		})
	}
}

// TestPlannedVsNaiveWitnesses extracts homomorphism certificates with
// both searches, in both directions of every corpus pair: the searches
// must agree on whether one exists, and each certificate must pass
// VerifyHomomorphism.  The two searches may find different witnesses;
// both must be valid.
func TestPlannedVsNaiveWitnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range gen.FamilyNames() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(8000 + fi)))
			f, err := gen.PairCorpus(rng, fam, wallPairs)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range f.Pairs {
				for _, dir := range [][2]*cq.Query{{p.Left, p.Right}, {p.Right, p.Left}} {
					homP, okP, err := findHomomorphism(dir[0], dir[1], f.Schema, f.Deps, cq.FindAnswerBindingCtx)
					if err != nil {
						t.Fatalf("pair %d (%s): planned: %v", i, p.Note, err)
					}
					homN, okN, err := findHomomorphism(dir[0], dir[1], f.Schema, f.Deps, cq.FindAnswerBindingNaive)
					if err != nil {
						t.Fatalf("pair %d (%s): naive: %v", i, p.Note, err)
					}
					if okP != okN {
						t.Fatalf("pair %d (%s): planned ok=%v, naive ok=%v", i, p.Note, okP, okN)
					}
					for _, hom := range []Homomorphism{homP, homN} {
						if hom == nil {
							continue
						}
						if err := VerifyHomomorphism(dir[0], dir[1], hom, f.Schema, f.Deps); err != nil {
							t.Fatalf("pair %d (%s): invalid witness %s: %v", i, p.Note, hom, err)
						}
					}
				}
			}
		})
	}
}
