package engine

import (
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
)

// FuzzCanonicalKey checks two invariants over arbitrary .cq text.  Under
// plain `go test` the seed corpus runs as regression tests; `go test
// -fuzz=FuzzCanonicalKey` explores further.
//
//  1. Canonicalization never panics on any query the parser accepts
//     (schema-bearing and schema-free paths alike).
//  2. Cell-local refinement leaves the colors the full-sort reference
//     loop does.
//  3. α-equivalent presentations of the same text — variable renaming,
//     atom reordering, equality restructuring — map to the same key, and
//     the key is stable across repeated computation.
func FuzzCanonicalKey(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		q, err := cq.Parse(text)
		if err != nil {
			return
		}
		checkRefineMatchesReference(t, q)
		c1 := CanonicalizeQuery(q, nil)
		if c1.Key == "" {
			t.Fatalf("empty key for parsed query %s", q)
		}
		if again := CanonicalizeQuery(q, nil); again.Key != c1.Key || again.Exact != c1.Exact {
			t.Fatalf("canonicalization unstable: %q vs %q", c1.Key, again.Key)
		}
		// A reparse of the query's own print is the identity
		// presentation; its key must agree.
		if q2, err := cq.Parse(q.String()); err == nil {
			if c2 := CanonicalizeQuery(q2, nil); c2.Key != c1.Key {
				t.Fatalf("reparse changed key:\n  %q\n  %q", c1.Key, c2.Key)
			}
		}
		// Random α-equivalent presentations must collide (only exact
		// keys promise canonicity; the budget backstop may not).
		if !c1.Exact {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			v := gen.AlphaVariant(rng, q)
			cv := CanonicalizeQuery(v, nil)
			if cv.Key != c1.Key {
				t.Fatalf("alpha variant changed key:\n  base    %s -> %q\n  variant %s -> %q",
					q, c1.Key, v, cv.Key)
			}
		}
	})
}
