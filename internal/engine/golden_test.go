package engine

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
)

// updateGolden rewrites testdata/canon_golden.json from the current
// kernel.  Canonical keys are the verdict log's record keys, so a
// rewrite invalidates every persisted store: regenerate only for an
// intentional key-format change, never to make a kernel edit pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/canon_golden.json")

const goldenPath = "testdata/canon_golden.json"

// goldenSeed and goldenPairs fix the corpus the golden file records.
const (
	goldenSeed  = 13
	goldenPairs = 24
)

type goldenCase struct {
	Query string `json:"query"`
	Key   string `json:"key"`
	Exact bool   `json:"exact"`
}

type goldenFamily struct {
	Name   string       `json:"name"`
	Schema string       `json:"schema"` // empty: canonicalized without a schema
	Cases  []goldenCase `json:"cases"`
}

type goldenFile struct {
	Families []goldenFamily `json:"families"`
}

// fuzzSeeds is FuzzCanonicalKey's seed corpus, shared with the golden
// record so both pin the same inputs.
var fuzzSeeds = []string{
	"Q(X, Y) :- P(X, Y).",
	"Q(X) :- R(X, Y), S(Z, W), Y = Z, W = T1:3.",
	"Q(T1:7, Y) :- P(X, Y).",
	"V(X, X) :- P(X, Y), X = Y.",
	"V(X) :- E(X, Y), E(X2, Y2), X = X2, Y = Y2.",
	"V(X) :- E(X, Y), Y = T1:1, Y = T1:2.",
	"Q(X) :- P(X, Y), T1:1 = T1:2.",
	"V(A) :- E(A, B), E(C, D), E(E2, F), B = C, D = E2.",
	"V(X0) :- E(X0, Y0), E(X1, Y1), E(X2, Y2), X0 = X1, X1 = X2.",
}

// goldenInputs draws the recorded inputs: a fixed-seed gen.PairCorpus
// per family (each distinct query text once, in corpus order), plus the
// fuzz seeds the parser accepts, canonicalized without a schema.
func goldenInputs(t *testing.T) []goldenFamily {
	var fams []goldenFamily
	for _, name := range []string{"keyed", "graph-mixed", "graph-long", "wide"} {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(goldenSeed)), name, goldenPairs)
		if err != nil {
			t.Fatal(err)
		}
		gf := goldenFamily{Name: name, Schema: f.Schema.String()}
		seen := make(map[string]bool)
		for _, p := range f.Pairs {
			for _, q := range []*cq.Query{p.Left, p.Right} {
				text := q.String()
				if !seen[text] {
					seen[text] = true
					gf.Cases = append(gf.Cases, goldenCase{Query: text})
				}
			}
		}
		fams = append(fams, gf)
	}
	// Disjoint unions of directed cycles leave refinement with a single
	// color, so all but the smallest exhaust the tie-break budget: these
	// pin the inexact, greedy-completion path byte for byte too.
	sym := goldenFamily{Name: "graph-symmetric", Schema: gen.GraphSchema().String()}
	for _, shape := range [][2]int{{6, 3}, {4, 6}, {3, 8}, {5, 5}} {
		sym.Cases = append(sym.Cases, goldenCase{Query: cycleUnion(shape[0], shape[1])})
	}
	fams = append(fams, sym)
	fuzz := goldenFamily{Name: "fuzz-seeds"}
	for _, text := range fuzzSeeds {
		if _, err := cq.Parse(text); err == nil {
			fuzz.Cases = append(fuzz.Cases, goldenCase{Query: text})
		}
	}
	return append(fams, fuzz)
}

// cycleUnion renders copies disjoint directed n-cycles over E as one
// head-less query.
func cycleUnion(n, copies int) string {
	var atoms, eqs []string
	for c := 0; c < copies; c++ {
		for i := 0; i < n; i++ {
			atoms = append(atoms, fmt.Sprintf("E(X%d_%d, Y%d_%d)", c, i, c, i))
			eqs = append(eqs, fmt.Sprintf("Y%d_%d = X%d_%d", c, i, c, (i+1)%n))
		}
	}
	return "V() :- " + strings.Join(atoms, ", ") + ", " + strings.Join(eqs, ", ") + "."
}

// canonicalizeGolden parses a recorded query and canonicalizes it under
// its family's schema.
func canonicalizeGolden(t *testing.T, s *schema.Schema, text string) Canonical {
	t.Helper()
	q, err := cq.Parse(text)
	if err != nil {
		t.Fatalf("golden query %q: %v", text, err)
	}
	return CanonicalizeQuery(q, s)
}

func familySchema(t *testing.T, f goldenFamily) *schema.Schema {
	t.Helper()
	if f.Schema == "" {
		return nil
	}
	s, err := schema.Parse(f.Schema)
	if err != nil {
		t.Fatalf("golden family %s schema: %v", f.Name, err)
	}
	return s
}

// TestCanonicalKeyGolden pins canonical keys byte for byte.  The verdict
// log is keyed by them, so any kernel change that moves a key would
// orphan every persisted verdict.
func TestCanonicalKeyGolden(t *testing.T) {
	if *updateGolden {
		fams := goldenInputs(t)
		for fi := range fams {
			s := familySchema(t, fams[fi])
			for ci := range fams[fi].Cases {
				c := &fams[fi].Cases[ci]
				got := canonicalizeGolden(t, s, c.Query)
				c.Key, c.Exact = got.Key, got.Exact
			}
		}
		data, err := json.MarshalIndent(goldenFile{Families: fams}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenPath), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	cases := 0
	for _, f := range gf.Families {
		s := familySchema(t, f)
		for _, c := range f.Cases {
			cases++
			got := canonicalizeGolden(t, s, c.Query)
			if got.Key != c.Key || got.Exact != c.Exact {
				t.Errorf("%s: key drifted for %s\n  want %q (exact %v)\n  got  %q (exact %v)",
					f.Name, c.Query, c.Key, c.Exact, got.Key, got.Exact)
			}
		}
	}
	if len(gf.Families) != 6 || cases == 0 {
		t.Fatalf("%s: %d families, %d cases; want 6 families and a non-empty corpus", goldenPath, len(gf.Families), cases)
	}
}
