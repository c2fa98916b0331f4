package cq_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/value"
)

const stringGoldenPath = "testdata/string_golden.txt"

// stringGoldenQueries lists the queries whose renderings the String
// golden pins: every distinct query of a fixed-seed gen.PairCorpus per
// family, then hand-built edge cases — keyed queries with constants in
// the head and the equality list (extreme, negative and untyped values
// included), a query with an empty HeadRel, and an empty head.
func stringGoldenQueries(t *testing.T) []*cq.Query {
	t.Helper()
	var qs []*cq.Query
	seen := make(map[string]bool)
	for _, name := range gen.FamilyNames() {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(17)), name, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range f.Pairs {
			for _, q := range []*cq.Query{p.Left, p.Right} {
				if s := q.String(); !seen[s] {
					seen[s] = true
					qs = append(qs, q)
				}
			}
		}
	}
	for _, text := range []string{
		"V(T1:7, X) :- R(X, Y), S(Y2, W), Y = Y2, W = T1:3.",
		"V(X, T2:0) :- R(X, Y), Y = T2:12345678901.",
		"Q(T1:1, T1:2, T2:3) :- R(K, A), K = T1:9, A = T2:10.",
	} {
		qs = append(qs, cq.MustParse(text))
	}
	qs = append(qs,
		&cq.Query{
			HeadRel: "V",
			Head:    []cq.Term{cq.C(value.Value{Type: 3, N: math.MinInt64}), cq.V("X")},
			Body:    []cq.Atom{{Rel: "R", Vars: []cq.Var{"X", "Y"}}},
			Eqs: []cq.Equality{
				{Left: "Y", Right: cq.C(value.Value{Type: math.MaxInt32, N: math.MaxInt64})},
				{Left: "X", Right: cq.C(value.Value{N: -4})},
				{Left: "X", Right: cq.C(value.Value{})},
			},
		},
		&cq.Query{ // empty HeadRel prints as Q
			Head: []cq.Term{cq.V("A")},
			Body: []cq.Atom{{Rel: "R", Vars: []cq.Var{"A", "B"}}, {Rel: "S", Vars: []cq.Var{"C", "D"}}},
			Eqs:  []cq.Equality{{Left: "B", Right: cq.V("C")}},
		},
		&cq.Query{HeadRel: "Empty", Body: []cq.Atom{{Rel: "P"}}},
	)
	return qs
}

// TestStringGolden pins Query.String byte for byte, one rendering per
// line.
func TestStringGolden(t *testing.T) {
	var b strings.Builder
	for _, q := range stringGoldenQueries(t) {
		b.WriteString(q.String())
		b.WriteByte('\n')
	}
	got := []byte(b.String())
	if *updateGolden {
		if err := os.WriteFile(stringGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(stringGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden has %d lines, String produced %d", len(wl), len(gl))
	}
}

// TestStringAllocs checks a 20-atom wide query, and a query with
// constants in its head and equality list, each print in one
// allocation: the rendering goes into a single presized buffer.
func TestStringAllocs(t *testing.T) {
	wide := gen.WideChainQuery(20)
	if len(wide.Body) != 20 {
		t.Fatalf("wide chain has %d atoms, want 20", len(wide.Body))
	}
	for _, q := range []*cq.Query{wide, cq.MustParse("V(T1:7, X) :- R(X, Y), S(Y2, W), Y = Y2, W = T1:-3.")} {
		if n := testing.AllocsPerRun(100, func() { _ = q.String() }); n != 1 {
			t.Fatalf("String allocates %v times per call on %s, want 1", n, q)
		}
	}
}
