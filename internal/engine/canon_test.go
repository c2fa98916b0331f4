package engine

import (
	"math/rand"
	"slices"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
)

func TestCanonicalKeyInvariantUnderAlphaVariants(t *testing.T) {
	s := gen.GraphSchema()
	rng := rand.New(rand.NewSource(1))
	bases := []*cq.Query{
		gen.ChainQuery(1), gen.ChainQuery(3), gen.ChainQuery(5),
		gen.StarQuery(2), gen.StarQuery(4),
		gen.CliqueQuery(2), gen.CliqueQuery(3),
		gen.RandomChainVariant(rng, 3, 2),
	}
	for _, q := range bases {
		want := CanonicalizeQuery(q, s)
		if want.Key == "" {
			t.Fatalf("empty canonical key for %s", q)
		}
		for i := 0; i < 25; i++ {
			v := gen.AlphaVariant(rng, q)
			got := CanonicalizeQuery(v, s)
			if got.Key != want.Key {
				t.Fatalf("alpha variant %d of %s changed key:\n  base    %q\n  variant %q\n  variant query %s",
					i, q, want.Key, got.Key, v)
			}
		}
	}
}

func TestCanonicalKeySeparatesDistinctQueries(t *testing.T) {
	s := gen.GraphSchema()
	qs := []*cq.Query{
		gen.ChainQuery(1), gen.ChainQuery(2), gen.ChainQuery(3),
		gen.StarQuery(2), gen.StarQuery(3),
		gen.CliqueQuery(3),
	}
	keys := make(map[string]*cq.Query)
	for _, q := range qs {
		k := CanonicalizeQuery(q, s).Key
		if prev, dup := keys[k]; dup {
			t.Fatalf("distinct queries share a key:\n  %s\n  %s\n  key %q", prev, q, k)
		}
		keys[k] = q
	}
}

func TestCanonicalKeyDistinguishesHeads(t *testing.T) {
	s := gen.GraphSchema()
	q1 := cq.MustParse("V(X) :- E(X, Y).")
	q2 := cq.MustParse("V(Y) :- E(X, Y).")
	if CanonicalizeQuery(q1, s).Key == CanonicalizeQuery(q2, s).Key {
		t.Fatal("queries projecting different positions share a key")
	}
}

func TestCanonicalKeyDistinguishesConstants(t *testing.T) {
	s := gen.GraphSchema()
	q1 := cq.MustParse("V(X) :- E(X, Y), Y = T1:1.")
	q2 := cq.MustParse("V(X) :- E(X, Y), Y = T1:2.")
	q3 := cq.MustParse("V(X) :- E(X, Y).")
	k1 := CanonicalizeQuery(q1, s).Key
	k2 := CanonicalizeQuery(q2, s).Key
	k3 := CanonicalizeQuery(q3, s).Key
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatalf("constant bindings not reflected in keys: %q %q %q", k1, k2, k3)
	}
}

func TestCanonicalKeyCollapsesUnsatisfiable(t *testing.T) {
	s := gen.GraphSchema()
	q1 := cq.MustParse("V(X) :- E(X, Y), Y = T1:1, Y = T1:2.")
	q2 := cq.MustParse("V(A) :- E(A, B), E(B, C), B = T1:7, B = T1:9.")
	k1 := CanonicalizeQuery(q1, s)
	k2 := CanonicalizeQuery(q2, s)
	if k1.Key != k2.Key {
		t.Fatalf("unsatisfiable queries of equal head type should share a key: %q vs %q", k1.Key, k2.Key)
	}
	sat := CanonicalizeQuery(cq.MustParse("V(X) :- E(X, Y)."), s)
	if sat.Key == k1.Key {
		t.Fatal("satisfiable query collapsed with unsatisfiable ones")
	}
}

func TestCanonicalKeyExactOnRealisticShapes(t *testing.T) {
	s := gen.GraphSchema()
	for _, q := range []*cq.Query{
		gen.ChainQuery(6), gen.StarQuery(6), gen.CliqueQuery(4),
	} {
		c := CanonicalizeQuery(q, s)
		if !c.Exact {
			t.Errorf("tie-break budget exhausted on %s", q)
		}
	}
}

func TestCanonicalKeyNilSchema(t *testing.T) {
	q := gen.ChainQuery(2)
	withSchema := CanonicalizeQuery(q, gen.GraphSchema())
	without := CanonicalizeQuery(q, nil)
	if withSchema.Key != without.Key {
		t.Fatalf("schema presence changed a satisfiable query's key: %q vs %q", withSchema.Key, without.Key)
	}
}

// refineReference is the refinement loop refine replaced, kept as its
// oracle: every round re-ranks every class row, own color first, in one
// full sort.  It shares refine's initial round.
func refineReference(c *canonizer) {
	nc, na := len(c.color), len(c.atomRel)
	posBase := c.posBase()
	classRows := make([][]int, nc)
	c.initialRows(posBase, classRows, make([]int, 2*nc+len(c.headPos)+len(c.occAtom)))
	idx := make([]int, max(nc, na))
	distinct := rankRows(classRows, c.color, idx)
	atomRows, atomColor := make([][]int, na), make([]int, na)
	for round := 0; distinct < nc && round < nc; round++ {
		for ai, args := range c.atomArgs {
			atomRows[ai] = []int{c.relColor[ai]}
			for _, ci := range args {
				atomRows[ai] = append(atomRows[ai], c.color[ci])
			}
		}
		rankRows(atomRows, atomColor, idx)
		for ci := range classRows {
			occAtom, occPos := c.occurrences(ci)
			row := []int{c.color[ci]}
			for k, ai := range occAtom {
				row = append(row, atomColor[ai]*posBase+occPos[k])
			}
			slices.Sort(row[1:])
			classRows[ci] = row
		}
		d := rankRows(classRows, c.color, idx)
		if d == distinct {
			return
		}
		distinct = d
	}
}

// checkRefineMatchesReference fails unless refine leaves exactly the
// colors refineReference does on q.
func checkRefineMatchesReference(t *testing.T, q *cq.Query) {
	t.Helper()
	got, unsat := newCanonizer(q)
	if unsat {
		return
	}
	want, _ := newCanonizer(q)
	got.refine()
	refineReference(want)
	if !slices.Equal(got.color, want.color) {
		t.Fatalf("refine diverges from the full-sort reference on %s:\n  got  %v\n  want %v", q, got.color, want.color)
	}
}

// TestRefineMatchesReference checks cell-local refinement against the
// full-sort reference on corpora of every family over several seeds,
// and on the golden record's inputs (the disjoint-cycle unions and the
// fuzz seeds among them).
func TestRefineMatchesReference(t *testing.T) {
	n := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, name := range gen.FamilyNames() {
			f, err := gen.PairCorpus(rand.New(rand.NewSource(seed)), name, 24)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range f.Pairs {
				checkRefineMatchesReference(t, p.Left)
				checkRefineMatchesReference(t, p.Right)
				n += 2
			}
		}
	}
	for _, f := range goldenInputs(t) {
		for _, c := range f.Cases {
			checkRefineMatchesReference(t, cq.MustParse(c.Query))
			n++
		}
	}
	if n == 0 {
		t.Fatal("no queries checked")
	}
}
