package ra

import (
	"math/rand"
	"strings"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

var s = schema.MustParse("R(a:T1, b:T2)\nS(c:T2, d:T3)")

func v(t value.Type, n int64) value.Value { return value.Value{Type: t, N: n} }

func db(t *testing.T) *instance.Database {
	t.Helper()
	d := instance.NewDatabase(s)
	d.MustInsert("R", v(1, 1), v(2, 1))
	d.MustInsert("R", v(1, 2), v(2, 2))
	d.MustInsert("S", v(2, 1), v(3, 1))
	d.MustInsert("S", v(2, 1), v(3, 2))
	return d
}

func TestEvalRel(t *testing.T) {
	out, err := Eval(&Rel{Name: "R"}, db(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("len = %d", out.Len())
	}
	if _, err := Eval(&Rel{Name: "ZZ"}, db(t)); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestEvalSelectConst(t *testing.T) {
	e := &SelectConst{E: &Rel{Name: "R"}, Col: 1, Const: v(2, 2)}
	out, err := Eval(e, db(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Has(instance.Tuple{v(1, 2), v(2, 2)}) {
		t.Errorf("select const wrong: %s", out)
	}
}

func TestEvalSelectEq(t *testing.T) {
	d := instance.NewDatabase(schema.MustParse("E(x:T1, y:T1)"))
	d.MustInsert("E", v(1, 1), v(1, 1))
	d.MustInsert("E", v(1, 1), v(1, 2))
	e := &SelectEq{E: &Rel{Name: "E"}, Left: 0, Right: 1}
	out, err := Eval(e, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Has(instance.Tuple{v(1, 1), v(1, 1)}) {
		t.Errorf("select eq wrong: %s", out)
	}
}

func TestEvalProductJoinProject(t *testing.T) {
	d := db(t)
	prod := &Product{L: &Rel{Name: "R"}, R: &Rel{Name: "S"}}
	out, err := Eval(prod, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Errorf("product len = %d", out.Len())
	}
	join := &Join{L: &Rel{Name: "R"}, R: &Rel{Name: "S"}, LCol: 1, RCol: 0}
	jout, err := Eval(join, d)
	if err != nil {
		t.Fatal(err)
	}
	// R(1,1) joins S(1,1),(1,2); R(2,2) joins nothing.
	if jout.Len() != 2 {
		t.Errorf("join len = %d: %s", jout.Len(), jout)
	}
	proj := &Project{E: join, Cols: []ProjCol{Col(0), Col(3), Const(v(9, 7))}}
	pout, err := Eval(proj, d)
	if err != nil {
		t.Fatal(err)
	}
	if pout.Len() != 2 {
		t.Errorf("project len = %d", pout.Len())
	}
	for _, tp := range pout.Tuples() {
		if tp[2] != v(9, 7) {
			t.Errorf("constant column wrong: %v", tp)
		}
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []Expr{
		&SelectEq{E: &Rel{Name: "R"}, Left: 0, Right: 1},                // T1 vs T2
		&SelectEq{E: &Rel{Name: "R"}, Left: 0, Right: 5},                // out of range
		&SelectConst{E: &Rel{Name: "R"}, Col: 0, Const: v(2, 1)},        // type clash
		&SelectConst{E: &Rel{Name: "R"}, Col: 9, Const: v(1, 1)},        // out of range
		&Join{L: &Rel{Name: "R"}, R: &Rel{Name: "S"}, LCol: 0, RCol: 0}, // T1 vs T2
		&Join{L: &Rel{Name: "R"}, R: &Rel{Name: "S"}, LCol: 5, RCol: 0}, // range
		&Project{E: &Rel{Name: "R"}, Cols: []ProjCol{Col(7)}},           // range
		&Rel{Name: "nope"},
	}
	for i, e := range cases {
		if _, err := e.Type(s); err == nil {
			t.Errorf("case %d (%s): Type() accepted", i, e)
		}
		if _, err := Eval(e, db(t)); err == nil {
			t.Errorf("case %d (%s): Eval() accepted", i, e)
		}
	}
}

func TestTypeInference(t *testing.T) {
	e := &Project{
		E:    &Join{L: &Rel{Name: "R"}, R: &Rel{Name: "S"}, LCol: 1, RCol: 0},
		Cols: []ProjCol{Col(0), Col(3), Const(v(9, 1))},
	}
	ts, err := e.Type(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []value.Type{1, 3, 9}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("Type[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestFromCQMatchesEval(t *testing.T) {
	queries := []string{
		"V(X, Y) :- R(X, Y).",
		"V(X, W) :- R(X, Y), S(Z, W), Y = Z.",
		"V(X) :- R(X, Y), Y = T2:2.",
		"V(T3:9, X) :- R(X, Y).",
		"V(X, X) :- R(X, Y).",
	}
	d := db(t)
	for _, text := range queries {
		q := cq.MustParse(text)
		e, err := FromCQ(q, s)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		raOut, err := Eval(e, d)
		if err != nil {
			t.Fatal(err)
		}
		cqOut, err := cq.Eval(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if !raOut.Equal(cqOut) {
			t.Errorf("%q: RA %s vs CQ %s", text, raOut, cqOut)
		}
	}
}

func TestFromCQValidates(t *testing.T) {
	if _, err := FromCQ(cq.MustParse("V(X) :- Z(X)."), s); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestToCQRoundTrip(t *testing.T) {
	exprs := []Expr{
		&Project{E: &Rel{Name: "R"}, Cols: []ProjCol{Col(0)}},
		&Project{
			E:    &Join{L: &Rel{Name: "R"}, R: &Rel{Name: "S"}, LCol: 1, RCol: 0},
			Cols: []ProjCol{Col(0), Col(3)},
		},
		&SelectConst{E: &Rel{Name: "S"}, Col: 1, Const: v(3, 1)},
		&Project{
			E:    &Product{L: &Rel{Name: "R"}, R: &Rel{Name: "S"}},
			Cols: []ProjCol{Col(0), Const(v(9, 2))},
		},
	}
	d := db(t)
	for _, e := range exprs {
		q, err := ToCQ(e, s)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		raOut, err := Eval(e, d)
		if err != nil {
			t.Fatal(err)
		}
		cqOut, err := cq.Eval(q, d)
		if err != nil {
			t.Fatalf("%s -> %s: %v", e, q, err)
		}
		if !raOut.Equal(cqOut) {
			t.Errorf("%s -> %s: RA %s vs CQ %s", e, q, raOut, cqOut)
		}
	}
}

func TestToCQConstConflict(t *testing.T) {
	// σ over a projection that made two distinct constant columns equal
	// is the empty query; the extraction reports it as an error.
	e := &SelectEq{
		E:     &Project{E: &Rel{Name: "R"}, Cols: []ProjCol{Const(v(9, 1)), Const(v(9, 2))}},
		Left:  0,
		Right: 1,
	}
	if _, err := ToCQ(e, s); err == nil {
		t.Error("distinct-constant selection should be rejected")
	}
	// Equal constants are fine and produce no equality.
	e2 := &SelectEq{
		E:     &Project{E: &Rel{Name: "R"}, Cols: []ProjCol{Col(0), Const(v(9, 1)), Const(v(9, 1))}},
		Left:  1,
		Right: 2,
	}
	q, err := ToCQ(e2, s)
	if err != nil {
		t.Fatalf("equal-constant selection rejected: %v", err)
	}
	if len(q.Eqs) != 0 {
		t.Errorf("no equality expected: %s", q)
	}
}

// Property: random CQ -> RA -> CQ preserves semantics on random instances.
func TestRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gs := schema.MustParse("E(x:T1, y:T1)")
	for trial := 0; trial < 60; trial++ {
		// Random chain-ish query over E.
		n := 1 + rng.Intn(3)
		q := &cq.Query{}
		var prev cq.Var
		for i := 0; i < n; i++ {
			a := cq.Atom{Rel: "E", Vars: []cq.Var{
				cq.Var("x" + string(rune('0'+i))),
				cq.Var("y" + string(rune('0'+i))),
			}}
			q.Body = append(q.Body, a)
			if i > 0 && rng.Intn(2) == 0 {
				q.Eqs = append(q.Eqs, cq.Equality{Left: prev, Right: cq.Term{Var: a.Vars[0]}})
			}
			prev = a.Vars[1]
		}
		q.Head = []cq.Term{{Var: q.Body[0].Vars[0]}, {Var: prev}}
		if rng.Intn(3) == 0 {
			q.Eqs = append(q.Eqs, cq.Equality{Left: prev, Right: cq.C(v(1, 1))})
		}
		e, err := FromCQ(q, gs)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := ToCQ(e, gs)
		if err != nil {
			t.Fatal(err)
		}
		d := instance.NewDatabase(gs)
		for k := 0; k < rng.Intn(6); k++ {
			d.MustInsert("E", v(1, int64(rng.Intn(3)+1)), v(1, int64(rng.Intn(3)+1)))
		}
		a0, _ := cq.Eval(q, d)
		a1, _ := Eval(e, d)
		a2, _ := cq.Eval(q2, d)
		if !a0.Equal(a1) || !a1.Equal(a2) {
			t.Fatalf("round trip broke semantics:\nq:  %s\ne:  %s\nq2: %s\n%s %s %s",
				q, e, q2, a0, a1, a2)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := &Project{
		E: &SelectConst{
			E: &SelectEq{
				E:     &Join{L: &Rel{Name: "R"}, R: &Product{L: &Rel{Name: "S"}, R: &Rel{Name: "S"}}, LCol: 1, RCol: 0},
				Left:  0,
				Right: 0,
			},
			Col:   1,
			Const: v(2, 3),
		},
		Cols: []ProjCol{Col(0), Const(v(9, 1))},
	}
	got := e.String()
	for _, want := range []string{"π[0,T9:1]", "σ[1=T2:3]", "σ[0=0]", "⋈[1=0]", "(S × S)", "R"} {
		if !strings.Contains(got, want) {
			t.Errorf("String missing %q: %s", want, got)
		}
	}
}

func TestOptimizePushSelectEqSides(t *testing.T) {
	// Same-side conditions push into each product/join input.
	ss := schema.MustParse("E(x:T1, y:T1)\nF(u:T1, w:T1)")
	// Left-side condition on a product.
	e1 := &SelectEq{E: &Product{L: &Rel{Name: "E"}, R: &Rel{Name: "F"}}, Left: 0, Right: 1}
	o1, err := Optimize(e1, ss)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := o1.(*Product); !ok {
		t.Errorf("top should stay product: %s", o1)
	} else if _, ok := p.L.(*SelectEq); !ok {
		t.Errorf("condition not pushed left: %s", o1)
	}
	// Right-side condition on a product.
	e2 := &SelectEq{E: &Product{L: &Rel{Name: "E"}, R: &Rel{Name: "F"}}, Left: 2, Right: 3}
	o2, err := Optimize(e2, ss)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := o2.(*Product); !ok {
		t.Errorf("top should stay product: %s", o2)
	} else if _, ok := p.R.(*SelectEq); !ok {
		t.Errorf("condition not pushed right: %s", o2)
	}
	// Same-side conditions push through an existing join.
	e3 := &SelectEq{E: &Join{L: &Rel{Name: "E"}, R: &Rel{Name: "F"}, LCol: 1, RCol: 0}, Left: 2, Right: 3}
	o3, err := Optimize(e3, ss)
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := o3.(*Join); !ok {
		t.Errorf("top should stay join: %s", o3)
	} else if _, ok := j.R.(*SelectEq); !ok {
		t.Errorf("condition not pushed into join right: %s", o3)
	}
	// Conditions push through stacked selections.
	e4 := &SelectEq{
		E:     &SelectConst{E: &Rel{Name: "E"}, Col: 0, Const: v(1, 1)},
		Left:  0,
		Right: 1,
	}
	if _, err := Optimize(e4, ss); err != nil {
		t.Fatal(err)
	}
	// Differential checks for all of the above.
	d := instance.NewDatabase(ss)
	d.MustInsert("E", v(1, 1), v(1, 1))
	d.MustInsert("E", v(1, 1), v(1, 2))
	d.MustInsert("F", v(1, 2), v(1, 2))
	for i, pair := range [][2]Expr{{e1, o1}, {e2, o2}, {e3, o3}} {
		a1, err := Eval(pair[0], d)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Eval(pair[1], d)
		if err != nil {
			t.Fatal(err)
		}
		if !a1.Equal(a2) {
			t.Errorf("case %d: optimize changed semantics", i)
		}
	}
}

// TestEvalOperatorEdges pins the per-operator edges the fuzz tests can
// miss: unknown relations under every operator, unknown expression
// kinds, empty joins, a join with one matching bucket, and a constant
// projection over a product.
func TestEvalOperatorEdges(t *testing.T) {
	gs := schema.MustParse("E(x:T1, y:T1)")
	empty := instance.NewDatabase(gs)
	for _, e := range []Expr{
		&Rel{Name: "missing"},
		&Project{E: &Rel{Name: "missing"}},
		&Join{L: &Rel{Name: "E"}, R: &Rel{Name: "missing"}},
		&Product{L: &Rel{Name: "E"}, R: &Rel{Name: "missing"}},
		&SelectEq{E: &Rel{Name: "missing"}, Left: 0, Right: 1},
		&SelectConst{E: &Rel{Name: "missing"}},
	} {
		if _, err := Eval(e, empty); err == nil {
			t.Errorf("%s: unknown relation accepted", e)
		}
		if _, err := evalMaterialize(e, empty); err == nil {
			t.Errorf("%s: unknown relation evaluated", e)
		}
	}
	if _, err := evalMaterialize(struct{ Expr }{}, empty); err == nil {
		t.Error("unknown expression kind evaluated")
	}
	join := &Join{L: &Rel{Name: "E"}, R: &Rel{Name: "E"}, LCol: 1, RCol: 0}
	if out, err := Eval(join, empty); err != nil || out.Len() != 0 {
		t.Fatalf("empty join: %v, %v", out, err)
	}

	e1 := func(n int64) value.Value { return value.Value{Type: 1, N: n} }
	d := instance.NewDatabase(gs)
	d.MustInsert("E", e1(1), e1(2))
	d.MustInsert("E", e1(2), e1(3))
	// Only the left row (1, 2) has a matching right row.
	out, err := Eval(join, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Has(instance.Tuple{e1(1), e1(2), e1(2), e1(3)}) {
		t.Errorf("sparse join: %s", out)
	}
	// Constant projection over a product: the constant column is
	// repeated, the projected column ranges over the right side.
	p := &Project{
		E:    &Product{L: &Rel{Name: "E"}, R: &Rel{Name: "E"}},
		Cols: []ProjCol{Const(e1(9)), Col(3)},
	}
	out, err = Eval(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || !out.Has(instance.Tuple{e1(9), e1(2)}) || !out.Has(instance.Tuple{e1(9), e1(3)}) {
		t.Errorf("constant projection: %s", out)
	}
	rows, err := evalMaterialize(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("product projection yielded %d rows before dedup, want 4", len(rows))
	}
}
