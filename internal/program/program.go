// Package program implements non-recursive Datalog over the paper's
// conjunctive query language: an ordered sequence of derived relations
// (views), each defined by a union of conjunctive queries over the base
// schema and the previously defined views.  Programs evaluate by
// materializing the strata in order, and *unfold* into plain UCQs over
// the base schema — so program equivalence reduces to UCQ equivalence
// (Sagiv–Yannakakis), optionally under the base schema's key
// dependencies.
package program

import (
	"fmt"
	"strings"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/invariant"
	"keyedeq/internal/schema"
	"keyedeq/internal/ucq"
	"keyedeq/internal/value"
)

// View is one stratum: a derived relation scheme and its UCQ definition
// over the layer below.
type View struct {
	Scheme *schema.Relation
	Def    *ucq.Query
}

// Program is a non-recursive Datalog program over a base schema.
type Program struct {
	Base  *schema.Schema
	Views []View
}

// Parse reads a program:
//
//	def twohop(src:T1, dst:T1)
//	twohop(X, Z) :- E(X, Y), E(Y2, Z), Y = Y2.
//	def fourhop(src:T1, dst:T1)
//	fourhop(X, Z) :- twohop(X, Y), twohop(Y2, Z), Y = Y2.
//
// Each "def" line declares a derived relation (same syntax as schema
// relations, keys not allowed); subsequent rule lines with that head
// name define it.  Rules may use the base schema and previously declared
// views only.
func Parse(base *schema.Schema, text string) (*Program, error) {
	p := &Program{Base: base}
	byName := map[string]int{}
	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pos := cq.Pos{Line: lineno + 1, Col: cq.LineIndent(raw) + 1}
		if strings.HasPrefix(line, "def ") {
			rel, err := schema.ParseRelation(strings.TrimSpace(line[4:]))
			if err != nil {
				return nil, fmt.Errorf("program: %s: %v", pos, err)
			}
			if rel.Keyed() {
				return nil, fmt.Errorf("program: %s: derived relation %q cannot declare a key", pos, rel.Name)
			}
			if base.Relation(rel.Name) != nil {
				return nil, fmt.Errorf("program: %s: %q shadows a base relation", pos, rel.Name)
			}
			if _, dup := byName[rel.Name]; dup {
				return nil, fmt.Errorf("program: %s: %q defined twice", pos, rel.Name)
			}
			byName[rel.Name] = len(p.Views)
			p.Views = append(p.Views, View{Scheme: rel, Def: &ucq.Query{}})
			continue
		}
		q, err := cq.ParseAt(line, pos)
		if err != nil {
			return nil, fmt.Errorf("program: %s", cq.PositionedMsg(err, pos))
		}
		i, ok := byName[q.HeadRel]
		if !ok {
			return nil, fmt.Errorf("program: %s: rule for undeclared view %q", q.Pos, q.HeadRel)
		}
		p.Views[i].Def.Disjuncts = append(p.Views[i].Def.Disjuncts, q)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse is Parse but panics on error.
func MustParse(base *schema.Schema, text string) *Program {
	p, err := Parse(base, text)
	invariant.Must(err)
	return p
}

// SchemaAt returns the schema visible to stratum i's rules: the base
// relations plus views 0..i-1.  i = len(Views) gives the full extended
// schema.
func (p *Program) SchemaAt(i int) *schema.Schema {
	s := &schema.Schema{}
	s.Relations = append(s.Relations, p.Base.Relations...)
	for j := 0; j < i && j < len(p.Views); j++ {
		s.Relations = append(s.Relations, p.Views[j].Scheme)
	}
	return s
}

// Validate checks stratification: each view has at least one rule, every
// rule is a valid CQ over the layer below with the view's head type, and
// no rule references the view itself or later views (non-recursive).
func (p *Program) Validate() error {
	if err := p.Base.Validate(); err != nil {
		return err
	}
	for i, v := range p.Views {
		if len(v.Def.Disjuncts) == 0 {
			return fmt.Errorf("program: view %q has no rules", v.Scheme.Name)
		}
		layer := p.SchemaAt(i)
		for _, q := range v.Def.Disjuncts {
			ht, err := q.ValidHeadType(layer)
			if err != nil {
				return fmt.Errorf("program: view %q: %v", v.Scheme.Name, err)
			}
			if len(ht) != v.Scheme.Arity() {
				return fmt.Errorf("program: view %q rule has arity %d, want %d", v.Scheme.Name, len(ht), v.Scheme.Arity())
			}
			for pidx, t := range ht {
				if t != v.Scheme.Attrs[pidx].Type {
					return fmt.Errorf("program: view %q rule position %d has type %v, want %v",
						v.Scheme.Name, pidx, t, v.Scheme.Attrs[pidx].Type)
				}
			}
		}
	}
	return nil
}

// Eval materializes every view in order and returns the extended
// database (base relations plus one relation per view).
func (p *Program) Eval(d *instance.Database) (*instance.Database, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ext := instance.NewDatabase(p.SchemaAt(len(p.Views)))
	for i, r := range p.Base.Relations {
		src := d.Relation(r.Name)
		if src == nil {
			return nil, fmt.Errorf("program: instance missing base relation %q", r.Name)
		}
		for _, t := range src.Tuples() {
			if err := ext.Relations[i].Insert(t); err != nil {
				return nil, err
			}
		}
	}
	for i, v := range p.Views {
		ans, err := ucq.Eval(v.Def, ext)
		if err != nil {
			return nil, fmt.Errorf("program: evaluating %q: %v", v.Scheme.Name, err)
		}
		dst := ext.Relations[len(p.Base.Relations)+i]
		for _, t := range ans.Tuples() {
			if err := dst.Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return ext, nil
}

// Unfold expands the named view into a union of conjunctive queries over
// the BASE schema only, by repeatedly inlining view atoms with each of
// their defining disjuncts.
func (p *Program) Unfold(view string) (*ucq.Query, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	idx := -1
	for i, v := range p.Views {
		if v.Scheme.Name == view {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("program: no view %q", view)
	}
	defs := map[string]*ucq.Query{}
	for _, v := range p.Views {
		defs[v.Scheme.Name] = v.Def
	}
	out := &ucq.Query{}
	// Stratification guarantees termination; the step cap is a backstop
	// against pathological blowup (every inline strictly lowers the
	// stratum of the replaced atom).
	const maxSteps = 100_000
	steps := 0
	var expand func(q *cq.Query, depth int) error
	expand = func(q *cq.Query, depth int) error {
		steps++
		if steps > maxSteps {
			return fmt.Errorf("program: unfolding exceeded %d steps", maxSteps)
		}
		// Find the first view atom.
		at := -1
		for i, a := range q.Body {
			if _, isView := defs[a.Rel]; isView {
				at = i
				break
			}
		}
		if at < 0 {
			out.Disjuncts = append(out.Disjuncts, q)
			return nil
		}
		for di, dq := range defs[q.Body[at].Rel].Disjuncts {
			inlined, err := inlineAtom(q, at, dq, fmt.Sprintf("u%d_%d_", depth, di), p.SchemaAt(len(p.Views)))
			if err != nil {
				return err
			}
			if err := expand(inlined, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, q := range p.Views[idx].Def.Disjuncts {
		if err := expand(q.Clone(), 0); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(p.Base); err != nil {
		return nil, fmt.Errorf("program: unfolded query invalid: %v", err)
	}
	return out, nil
}

// inlineAtom replaces q's body atom at index at with the body of def
// (renamed apart with the prefix), resolving the atom's placeholder
// variables through def's head and rewriting q's head and equality list
// accordingly.
func inlineAtom(q *cq.Query, at int, def *cq.Query, prefix string, layer *schema.Schema) (*cq.Query, error) {
	d := def.Rename(prefix)
	removed := q.Body[at]
	if len(d.Head) != len(removed.Vars) {
		return nil, fmt.Errorf("program: arity mismatch inlining %q", removed.Rel)
	}
	resolve := map[cq.Var]cq.Term{}
	for pidx, v := range removed.Vars {
		resolve[v] = d.Head[pidx]
	}
	termOf := func(t cq.Term) cq.Term {
		if t.IsConst {
			return t
		}
		if r, ok := resolve[t.Var]; ok {
			return r
		}
		return t
	}
	out := &cq.Query{HeadRel: q.HeadRel}
	for i, a := range q.Body {
		if i == at {
			out.Body = append(out.Body, d.Body...)
			continue
		}
		out.Body = append(out.Body, cq.Atom{Rel: a.Rel, Vars: append([]cq.Var(nil), a.Vars...)})
	}
	out.Eqs = append(out.Eqs, d.Eqs...)
	for _, e := range q.Eqs {
		l := termOf(cq.Term{Var: e.Left})
		r := termOf(e.Right)
		switch {
		case !l.IsConst:
			out.Eqs = append(out.Eqs, cq.Equality{Left: l.Var, Right: r})
		case !r.IsConst:
			out.Eqs = append(out.Eqs, cq.Equality{Left: r.Var, Right: l})
		case l.Const == r.Const:
			// trivially true
		default:
			// Unsatisfiable: bind an arbitrary body variable to two
			// distinct constants of its own type (the query is empty).
			v, t, ok := anyVarTyped(out, layer)
			if !ok {
				return nil, fmt.Errorf("program: unsatisfiable inline with empty body")
			}
			out.Eqs = append(out.Eqs,
				cq.Equality{Left: v, Right: cq.C(value.Value{Type: t, N: 1})},
				cq.Equality{Left: v, Right: cq.C(value.Value{Type: t, N: 2})},
			)
		}
	}
	for _, t := range q.Head {
		out.Head = append(out.Head, termOf(t))
	}
	return out, nil
}

// anyVarTyped picks a body placeholder of q and its attribute type under
// the layer schema.
func anyVarTyped(q *cq.Query, layer *schema.Schema) (cq.Var, value.Type, bool) {
	for _, a := range q.Body {
		rel := layer.Relation(a.Rel)
		if rel == nil {
			continue
		}
		for i, v := range a.Vars {
			return v, rel.Attrs[i].Type, true
		}
	}
	return "", value.NoType, false
}

// Equivalent reports whether two programs' views compute the same answers
// on every base instance satisfying deps: both are unfolded to base UCQs
// and compared with Sagiv–Yannakakis.
func Equivalent(p1 *Program, view1 string, p2 *Program, view2 string, deps []fd.FD) (bool, error) {
	u1, err := p1.Unfold(view1)
	if err != nil {
		return false, err
	}
	u2, err := p2.Unfold(view2)
	if err != nil {
		return false, err
	}
	if !schema.Isomorphic(p1.Base, p1.Base) { // cheap sanity; bases must be shared by convention
		return false, fmt.Errorf("program: bases differ")
	}
	return ucq.Equivalent(u1, u2, p1.Base, deps)
}

// String renders the program in its input format.
func (p *Program) String() string {
	var b strings.Builder
	for _, v := range p.Views {
		b.WriteString("def ")
		b.WriteString(v.Scheme.String())
		b.WriteByte('\n')
		for _, q := range v.Def.Disjuncts {
			qq := q.Clone()
			qq.HeadRel = v.Scheme.Name
			b.WriteString(qq.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
