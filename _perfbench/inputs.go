package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"syscall"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
)

// request is one decision the benchmark asks for: the texts a client
// sends and the verdict the plain decision procedure gives for them.
type request struct {
	schema      string
	left, right string
	op          string // "equiv" or "contains", as on the daemon's wire
	family      string // keyed, graph or wide: the per-family metric it feeds
	alpha       bool   // right is an α-variant of left, so the pair holds by construction
	holds       bool   // reference verdict
	body        []byte // POST /v1/decide body
}

// decideBody mirrors the daemon's /v1/decide request.
type decideBody struct {
	Schema string `json:"schema"`
	Left   string `json:"left"`
	Right  string `json:"right"`
	Op     string `json:"op"`
}

// familyOf maps a gen corpus family to the per-family metric group.
func familyOf(corpus string) string {
	switch {
	case corpus == "keyed":
		return "keyed"
	case corpus == "wide":
		return "wide"
	case strings.HasPrefix(corpus, "graph"):
		return "graph"
	}
	panic("perfbench: unknown corpus family " + corpus)
}

// families lists the per-family metric groups in report order.
var families = []string{"keyed", "graph", "wide"}

// drawOp picks the wire op: about a quarter of requests ask for
// containment, the rest for equivalence.
func drawOp(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return "contains"
	}
	return "equiv"
}

// newRequest builds a request over one corpus pair, with its body.
func newRequest(corpus string, sch *schema.Schema, l, r *cq.Query, op string, alpha bool) *request {
	q := &request{
		schema: sch.String(),
		left:   l.String(),
		right:  r.String(),
		op:     op,
		family: familyOf(corpus),
		alpha:  alpha,
	}
	body, err := json.Marshal(decideBody{Schema: q.schema, Left: q.left, Right: q.right, Op: q.op})
	if err != nil {
		panic(err) // strings always marshal
	}
	q.body = body
	return q
}

// pairKey names a pair up to α-renaming on both sides, the way the
// engine's verdict cache keys it: equivalence is symmetric, so its two
// canonical keys are ordered.
func pairKey(s *schema.Schema, l, r *cq.Query, op string) string {
	k1 := engine.CanonicalizeQuery(l, s).Key
	k2 := engine.CanonicalizeQuery(r, s).Key
	if op == "equiv" && k2 < k1 {
		k1, k2 = k2, k1
	}
	return op + "\x1e" + k1 + "\x1f" + k2
}

// drawPair draws one pair of the corpus family.  Graph-long and wide
// pairs are built from fresh gen chain variants rather than PairCorpus's
// fixed chains, whose handful of pairs would repeat; other families use
// PairCorpus, whose keyed and graph-mixed bases are redrawn each call.
// As in PairCorpus, half the pairs are a base against its α-variant.
func drawPair(rng *rand.Rand, corpus string) (sch *schema.Schema, left, right *cq.Query, alpha bool) {
	var base func() *cq.Query
	switch corpus {
	case "graph-long":
		sch = gen.GraphSchema()
		base = func() *cq.Query { return gen.RandomChainVariant(rng, []int{10, 13, 16}[rng.Intn(3)], 1+rng.Intn(2)) }
	case "wide":
		sch = gen.WideSchema()
		base = func() *cq.Query { return gen.WideChainVariant(rng, []int{12, 16, 20}[rng.Intn(3)], 1+rng.Intn(2)) }
	default:
		f, err := gen.PairCorpus(rng, corpus, 1)
		if err != nil {
			panic(err) // corpus names are constants of this package
		}
		return f.Schema, f.Pairs[0].Left, f.Pairs[0].Right, isAlpha(f.Pairs[0])
	}
	if rng.Intn(2) == 0 {
		b := base()
		return sch, b, gen.AlphaVariant(rng, b), true
	}
	return sch, gen.AlphaVariant(rng, base()), gen.AlphaVariant(rng, base()), false
}

// freshPairs draws n pairs of the corpus family whose canonical pair
// keys are new to seen (which it extends), and returns `variants`
// requests per pair: the pair as drawn, then α-variants of both sides.
// Candidates are drawn in chunks and keyed on `workers` goroutines; the
// draws and the accept order depend on the seed alone.
func freshPairs(rng *rand.Rand, corpus string, n, variants, workers int, seen map[string]bool) []*request {
	type cand struct {
		sch         *schema.Schema
		left, right *cq.Query
		op          string
		alpha       bool
		key         string
	}
	var out []*request
	for drawn := 0; drawn < n; {
		cs := make([]cand, min(2*(n-drawn)+8, 4096))
		for i := range cs {
			c := &cs[i]
			c.sch, c.left, c.right, c.alpha = drawPair(rng, corpus)
			c.op = drawOp(rng)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(cs); i += workers {
					cs[i].key = pairKey(cs[i].sch, cs[i].left, cs[i].right, cs[i].op)
				}
			}(w)
		}
		wg.Wait()
		for i := range cs {
			c := &cs[i]
			if drawn == n || seen[c.key] {
				continue
			}
			seen[c.key] = true
			drawn++
			out = append(out, newRequest(corpus, c.sch, c.left, c.right, c.op, c.alpha))
			for v := 1; v < variants; v++ {
				out = append(out, newRequest(corpus, c.sch, gen.AlphaVariant(rng, c.left), gen.AlphaVariant(rng, c.right), c.op, c.alpha))
			}
		}
	}
	return out
}

// offHeap moves the requests' bodies into one anonymous mapping outside
// the Go heap and drops their parsed-out texts, which body still
// carries.  The benchmark's inputs then do not raise the garbage
// collector's target for the in-process daemon under test.  The caller
// unmaps the returned memory once the requests are no longer sent.
func offHeap(reqs []*request) ([]byte, error) {
	total := 0
	for _, q := range reqs {
		total += len(q.body)
	}
	mem, err := syscall.Mmap(-1, 0, max(total, 1), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping request bodies: %w", err)
	}
	off := 0
	for _, q := range reqs {
		n := copy(mem[off:], q.body)
		q.body = mem[off : off+n : off+n]
		q.schema, q.left, q.right = "", "", ""
		off += n
	}
	return mem, nil
}

// texts returns a request's schema and query texts, decoding its body
// when offHeap dropped them.
func (q *request) texts() (decideBody, error) {
	if q.left != "" {
		return decideBody{Schema: q.schema, Left: q.left, Right: q.right, Op: q.op}, nil
	}
	var b decideBody
	err := json.Unmarshal(q.body, &b)
	return b, err
}

// isAlpha reports whether a corpus pair was built as an α-variant pair;
// gen.PairCorpus records that only in the pair's note.
func isAlpha(p gen.Pair) bool { return strings.Contains(p.Note, "alpha pair") }

// parsed holds a request's texts parsed the way the daemon parses them.
type parsed struct {
	schema      *schema.Schema
	deps        []fd.FD
	left, right *cq.Query
}

func parse(q *request) (parsed, error) {
	var p parsed
	var err error
	if p.schema, err = schema.Parse(q.schema); err != nil {
		return p, err
	}
	p.deps = fd.KeyFDs(p.schema)
	if p.left, err = cq.Parse(q.left); err != nil {
		return p, err
	}
	p.right, err = cq.Parse(q.right)
	return p, err
}

// reference decides q with containment's plain procedure (no canonical
// form, cache, store or batch sharing) and stores the verdict.
func reference(q *request) error {
	p, err := parse(q)
	if err != nil {
		return err
	}
	var ok bool
	if q.op == "contains" {
		ok, _, err = containment.ContainedUnder(p.left, p.right, p.schema, p.deps)
	} else {
		ok, _, err = containment.EquivalentUnder(p.left, p.right, p.schema, p.deps)
	}
	if err != nil {
		return err
	}
	if q.alpha && !ok {
		return fmt.Errorf("α-variant pair does not hold under the reference: %s vs %s", q.left, q.right)
	}
	q.holds = ok
	return nil
}

// references computes every request's reference verdict on `workers`
// goroutines.
func references(qs []*request, workers int) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				if err := reference(qs[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("reference verdict: %w", err)
		}
	}
	return nil
}
