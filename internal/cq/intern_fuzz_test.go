package cq

import (
	"context"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// FuzzInternRoundTrip drives the interning layer with parsed instances
// and queries: freezing must be deterministic (two freezes of equal
// databases produce identical ID tables and rows), decoding must invert
// interning exactly, and the labeled-null ID namespace must never
// collide with the constant namespace.  Seeds come from the parser fuzz
// corpora of both packages.
func FuzzInternRoundTrip(f *testing.F) {
	instSeeds := []string{
		"R(T1:1, T2:5)",
		"R(T1:1, T2:5)\nS(T3:9)",
		"# comment\n\nR(T1:2, T2:2)",
		"R(T1:3, T2:3)\nR(T1:4, T2:3)\nS(T3:1)\nS(T3:2)",
		"",
	}
	cqSeeds := []string{
		"Q(X, Y) :- R(X, Y).",
		"Q(X) :- R(X, Y), S(Z), Y = T2:3.",
		"Q(T1:7, Y) :- R(X, Y).",
		"V(X, X) :- R(X, Y), X = Y.",
		"Q(X) :- R(X, Y), T1:1 = T1:2.",
	}
	for _, is := range instSeeds {
		for _, qs := range cqSeeds {
			f.Add(is, qs)
		}
	}
	sch := schema.MustParse("R(a*:T1, b:T2)\nS(c:T3)")
	f.Fuzz(func(t *testing.T, instText, cqText string) {
		d, err := instance.Parse(sch, instText)
		if err != nil {
			return
		}
		f1 := instance.FreezeDatabase(d)
		f2 := instance.FreezeDatabase(d)
		// IDs are stable under re-intern: equal databases freeze to
		// identical tables, cell for cell.
		if f1.Interner.Len() != f2.Interner.Len() {
			t.Fatalf("re-freeze changed interner size: %d vs %d", f1.Interner.Len(), f2.Interner.Len())
		}
		for ri := range f1.Relations {
			r1, r2 := f1.Relations[ri], f2.Relations[ri]
			if r1.NumRows() != r2.NumRows() {
				t.Fatalf("relation %d: %d vs %d rows", ri, r1.NumRows(), r2.NumRows())
			}
			for i := 0; i < r1.NumRows(); i++ {
				for p := 0; p < r1.Arity(); p++ {
					if r1.Cell(i, p) != r2.Cell(i, p) {
						t.Fatalf("relation %d cell (%d,%d): %d vs %d", ri, i, p, r1.Cell(i, p), r2.Cell(i, p))
					}
				}
			}
			// decode(intern(v)) == v, row by row against the surface view.
			tuples := d.Relations[ri].Tuples()
			for i, tup := range tuples {
				dec := f1.DecodeTuple(ri, i)
				for p := range tup {
					if dec[p] != tup[p] {
						t.Fatalf("relation %d row %d decodes to %v, want %v", ri, i, dec, tup)
					}
				}
			}
		}
		// The same values interned as labeled nulls land in the tagged
		// namespace and never collide with their constant IDs.
		for ri, r := range d.Relations {
			for _, tup := range r.Tuples() {
				for _, v := range tup {
					cid, ok := f1.Interner.Lookup(v)
					if !ok {
						t.Fatalf("relation %d: frozen view missing value %v", ri, v)
					}
					nid := f1.Interner.InternNull(v)
					if !nid.IsNull() || cid.IsNull() {
						t.Fatalf("null tagging broken: const %d null %d for %v", cid, nid, v)
					}
					if nid == cid {
						t.Fatalf("null ID collides with constant ID %d for %v", cid, v)
					}
					if got, ok := f1.Interner.Decode(nid); !ok || got != v {
						t.Fatalf("null decode(%d) = %v (%v), want %v", nid, got, ok, v)
					}
				}
			}
		}
		// Query constants survive an intern/decode round trip through a
		// fresh interner, independent of the database's tables.
		q, err := Parse(cqText)
		if err != nil {
			return
		}
		in := value.NewInterner(4)
		for _, c := range q.Constants() {
			id := in.Intern(c)
			if id != in.Intern(c) {
				t.Fatalf("re-intern of %v unstable", c)
			}
			if got, ok := in.Decode(id); !ok || got != c {
				t.Fatalf("decode(intern(%v)) = %v (%v)", c, got, ok)
			}
		}
		// The production search (which interns the database for its
		// pipeline arm) must agree with the naive oracle even on
		// arbitrary parsed inputs, and so must Eval's enumeration.
		if len(q.Body) == 0 {
			return
		}
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = value.Value{Type: 1, N: int64(i)}
		}
		okA, _, _, errA := FindAnswerBinding(q, d, want)
		okN, _, _, errN := FindAnswerBindingNaive(context.Background(), q, d, want)
		if (errA == nil) != (errN == nil) {
			t.Fatalf("errors diverge: adaptive %v, naive %v", errA, errN)
		}
		if errA == nil && okA != okN {
			t.Fatalf("adaptive found=%v, naive found=%v", okA, okN)
		}
		got, err := Eval(q, d)
		if err != nil {
			return
		}
		ref := instance.NewRelation(got.Scheme)
		if _, err := evalNaive(q, d, ref); err != nil {
			t.Fatalf("naive evaluation failed where Eval succeeded: %v", err)
		}
		if !got.Equal(ref) {
			t.Fatalf("Eval %s, naive %s", got, ref)
		}
	})
}
