package cq_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"keyedeq/internal/acyclic"
	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// updateGolden rewrites the golden records under testdata from the
// current code.  testdata/eval_golden.json pins full-enumeration Eval's
// answers and its search-tree accounting (Nodes, CompNodes): regenerate
// it only for an intentional change to plan order or node counting,
// never to make an evaluator edit pass.  testdata/string_golden.txt pins
// Query.String, the text every printed query and presentation memo uses.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden records under testdata")

const evalGoldenPath = "testdata/eval_golden.json"

type evalGoldenCase struct {
	Group     string   `json:"group"`
	Query     string   `json:"query"`
	DBSize    int      `json:"db_size"`
	Err       string   `json:"err,omitempty"`
	Answers   []string `json:"answers"`
	Nodes     int64    `json:"nodes"`
	CompNodes []int64  `json:"comp_nodes"`
	// AcyclicNodes is acyclic.Eval's final-join node count, recorded
	// for the chain cases (its final join runs through cq.EvalWithStats
	// over the reduced relations).
	AcyclicNodes *int64 `json:"acyclic_nodes,omitempty"`
}

func gv(n int64) value.Value { return value.Value{Type: 1, N: n} }

// evalGoldenCases evaluates every recorded input and renders the
// outcome.  The inputs are fixed-seed: random graphs under the chain,
// self-loop, and equated-join shapes; random two-relation instances
// under selections, constant heads, cross products, head-free
// components, and constants absent from the data; chain, star, and
// clique patterns (the clique probes wide index keys); and chains
// drowned in dead-end edges, evaluated plainly and through the
// Yannakakis reducer.
func evalGoldenCases(t *testing.T) []evalGoldenCase {
	t.Helper()
	var cases []evalGoldenCase
	record := func(group string, q *cq.Query, d *instance.Database, withAcyclic bool) {
		c := evalGoldenCase{Group: group, Query: q.String(), DBSize: d.Size(), Answers: []string{}}
		rel, st, err := cq.EvalWithStats(q, d)
		if err != nil {
			c.Err = err.Error()
		} else {
			for _, tp := range rel.Tuples() {
				c.Answers = append(c.Answers, tp.String())
			}
			sort.Strings(c.Answers)
			c.Nodes, c.CompNodes = st.Nodes, st.CompNodes
		}
		if withAcyclic {
			_, ys, err := acyclic.Eval(q, d)
			if err != nil {
				t.Fatalf("acyclic.Eval(%s): %v", q, err)
			}
			n := ys.Nodes
			c.AcyclicNodes = &n
		}
		cases = append(cases, c)
	}

	// Random graphs (seed 7): the randomized planned-vs-naive shapes.
	rng := rand.New(rand.NewSource(7))
	gs := schema.MustParse("E(a:T1, b:T1)")
	for trial := 0; trial < 50; trial++ {
		d := instance.NewDatabase(gs)
		nodes := int64(3 + rng.Intn(5))
		edges := 5 + rng.Intn(20)
		for i := 0; i < edges; i++ {
			d.MustInsert("E", gv(rng.Int63n(nodes)), gv(rng.Int63n(nodes)))
		}
		var q *cq.Query
		switch rng.Intn(3) {
		case 0:
			q = cq.MustParse("V(X, Z) :- E(X, Y), E(Y, Z).")
		case 1:
			q = cq.MustParse("V(X) :- E(X, X).")
		default:
			q = cq.MustParse("V(X, W) :- E(X, Y), E(Z, W), Y = Z.")
		}
		record("random-graph", q, d, false)
	}

	// Random two-relation instances (seed 99), large enough that most
	// steps probe an index.
	rps := schema.MustParse("R(a:T1, b:T1)\nP(c:T1, d:T1)")
	rpQueries := []string{
		"V(X, B) :- R(X, Y), P(A, B), Y = A.",
		"V(X, Y) :- R(X, Y), R(A, B), Y = A.",
		"V(X) :- R(X, Y), Y = T1:1.",
		"V(X, A) :- R(X, Y), P(A, B).",
		"V(X) :- R(X, Y), P(A, B).",
		"V(X, X) :- R(X, Y), R(Y, Z).",
		"V(T1:9, X) :- R(X, Y), P(Y, Z).",
		"V(X) :- R(X, Y), Y = T1:77.",
		"V(X, Z) :- R(X, Y), R(Y, Z), Y = T1:2.",
		"V(X) :- R(X, Y), Y = T1:1, Y = T1:2.",
		"V(X, B, D) :- R(X, Y), P(Y, B), R(C, D), P(D, C).",
		"V(X) :- R(X, Y), R(Y, Z), R(Z, X).",
	}
	rng = rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		d := instance.NewDatabase(rps)
		for _, rel := range []string{"R", "P"} {
			n := 6 + rng.Intn(14)
			for i := 0; i < n; i++ {
				d.MustInsert(rel, gv(int64(rng.Intn(5)+1)), gv(int64(rng.Intn(5)+1)))
			}
		}
		for _, text := range rpQueries {
			record("random-rp", cq.MustParse(text), d, false)
		}
	}

	// Chain, star, and clique patterns over random graphs (seed 5).
	rng = rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		d := gen.RandomGraph(rng, 6, 14+6*trial)
		for _, q := range []*cq.Query{gen.ChainQuery(3), gen.StarQuery(3), gen.CliqueQuery(3)} {
			record("graph-shapes", q, d, false)
		}
	}

	// Chains drowned in dead ends (the Yannakakis experiment's shape).
	for _, n := range []int{3, 5, 8} {
		for _, deadEnds := range []int{2, 4} {
			d := instance.NewDatabase(gen.GraphSchema())
			for i := int64(1); i <= int64(n); i++ {
				d.MustInsert("E", gv(i), gv(i+1))
			}
			next := int64(1000)
			for i := int64(1); i <= int64(n); i++ {
				for k := 0; k < deadEnds; k++ {
					d.MustInsert("E", gv(i), gv(next))
					next++
				}
			}
			record(fmt.Sprintf("chain-deadends-%d", deadEnds), gen.ChainQuery(n), d, true)
		}
	}
	return cases
}

// TestEvalGolden pins Eval byte for byte: the sorted answers and the
// node accounting of every recorded input.
func TestEvalGolden(t *testing.T) {
	got, err := json.MarshalIndent(evalGoldenCases(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.WriteFile(evalGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(evalGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		var gc, wc []evalGoldenCase
		_ = json.Unmarshal(got, &gc)
		_ = json.Unmarshal(want, &wc)
		if len(gc) != len(wc) {
			t.Fatalf("golden has %d cases, evaluator produced %d", len(wc), len(gc))
		}
		for i := range gc {
			g, _ := json.Marshal(gc[i])
			w, _ := json.Marshal(wc[i])
			if !bytes.Equal(g, w) {
				t.Fatalf("case %d differs:\n got %s\nwant %s", i, g, w)
			}
		}
		t.Fatal("golden differs in formatting only")
	}
}
