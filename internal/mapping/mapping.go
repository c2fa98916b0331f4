// Package mapping implements the paper's query mappings between schemas:
// tuples of conjunctive query views, one per destination relation
// (§2, "query mapping").  It provides typing, application to database
// instances, symbolic composition, the identity test β∘α = id (decided by
// conjunctive query equivalence under the source keys), validity (a
// mapping is valid when it carries key-satisfying instances to
// key-satisfying instances — decided by the chase-based view-FD test),
// the receives analysis lifted to schemas, witness mappings from schema
// isomorphisms, and the FD-transfer of Theorem 6.
package mapping

import (
	"fmt"
	"strings"

	"keyedeq/internal/cq"
	"keyedeq/internal/instance"
	"keyedeq/internal/invariant"
	"keyedeq/internal/schema"
)

// Mapping is a query mapping α = (v1, ..., vm) from Src to Dst: Queries[k]
// defines the instance of Dst.Relations[k] from an instance of Src.
type Mapping struct {
	Src, Dst *schema.Schema
	Queries  []*cq.Query
}

// New builds and validates a mapping.
func New(src, dst *schema.Schema, queries []*cq.Query) (*Mapping, error) {
	m := &Mapping{Src: src, Dst: dst, Queries: queries}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustNew is New but panics on error; for tests and fixtures.
func MustNew(src, dst *schema.Schema, queries []*cq.Query) *Mapping {
	m, err := New(src, dst, queries)
	invariant.Must(err)
	return m
}

// Validate checks that there is one well-formed query over Src per Dst
// relation and that each view's type equals its relation's type.
func (m *Mapping) Validate() error {
	if len(m.Queries) != len(m.Dst.Relations) {
		return fmt.Errorf("mapping: %d queries for %d destination relations",
			len(m.Queries), len(m.Dst.Relations))
	}
	for k, q := range m.Queries {
		rel := m.Dst.Relations[k]
		if q == nil {
			return fmt.Errorf("mapping: no query for %q", rel.Name)
		}
		ht, err := q.ValidHeadType(m.Src)
		if err != nil {
			return fmt.Errorf("mapping: query for %q: %v", rel.Name, err)
		}
		if len(ht) != rel.Arity() {
			return fmt.Errorf("mapping: query for %q has arity %d, want %d", rel.Name, len(ht), rel.Arity())
		}
		for i, t := range ht {
			if t != rel.Attrs[i].Type {
				return fmt.Errorf("mapping: query for %q position %d has type %v, want %v",
					rel.Name, i, t, rel.Attrs[i].Type)
			}
		}
	}
	return nil
}

// QueryFor returns the defining query of the named destination relation.
func (m *Mapping) QueryFor(rel string) *cq.Query {
	i := m.Dst.RelationIndex(rel)
	if i < 0 {
		return nil
	}
	return m.Queries[i]
}

// Apply maps an instance of Src to the defined instance of Dst.
func (m *Mapping) Apply(d *instance.Database) (*instance.Database, error) {
	if d.Schema != m.Src {
		// Accept structurally equal schemas too; positional application
		// only needs matching relation layout.
		if len(d.Schema.Relations) != len(m.Src.Relations) {
			return nil, fmt.Errorf("mapping: instance schema does not match source")
		}
	}
	out := instance.NewDatabase(m.Dst)
	for k, q := range m.Queries {
		rel, err := cq.EvalInto(q, d, m.Dst.Relations[k])
		if err != nil {
			return nil, fmt.Errorf("mapping: evaluating view %q: %v", m.Dst.Relations[k].Name, err)
		}
		for _, t := range rel.Tuples() {
			if err := out.Relations[k].Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Constants returns all constants used by the mapping's queries.
func (m *Mapping) Constants() []string {
	var out []string
	for _, q := range m.Queries {
		for _, c := range q.Constants() {
			out = append(out, c.String())
		}
	}
	return out
}

// String renders each view on its own line.
func (m *Mapping) String() string {
	parts := make([]string, len(m.Queries))
	for i, q := range m.Queries {
		qq := q.Clone()
		qq.HeadRel = m.Dst.Relations[i].Name
		parts[i] = qq.String()
	}
	return strings.Join(parts, "\n")
}

// IdentityMapping returns the identity query mapping S → S.
func IdentityMapping(s *schema.Schema) *Mapping {
	qs := make([]*cq.Query, len(s.Relations))
	for i, r := range s.Relations {
		qs[i] = cq.Identity(r)
	}
	return MustNew(s, s, qs)
}

// FromIsomorphism builds the witness mappings (α, β) for two isomorphic
// schemas: α maps each S1 relation onto its image with attributes
// permuted per the isomorphism, and β is the inverse.  These establish
// S1 ≼ S2 by (α, β) and S2 ≼ S1 by (β, α) — the trivial direction of
// Theorem 13.
func FromIsomorphism(s1, s2 *schema.Schema, iso *schema.Isomorphism) (alpha, beta *Mapping, err error) {
	if err := iso.Verify(s1, s2); err != nil {
		return nil, nil, err
	}
	aq := make([]*cq.Query, len(s2.Relations))
	bq := make([]*cq.Query, len(s1.Relations))
	for i, r1 := range s1.Relations {
		j := iso.RelMap[i]
		r2 := s2.Relations[j]
		am := iso.AttrMaps[i]
		// α's view for r2: r2(head) :- r1(X0..Xn) with head[am[p]] = Xp.
		qa := &cq.Query{HeadRel: r2.Name}
		atom := cq.Atom{Rel: r1.Name}
		heads := make([]cq.Term, r1.Arity())
		for p := 0; p < r1.Arity(); p++ {
			v := cq.Var(fmt.Sprintf("X%d", p))
			atom.Vars = append(atom.Vars, v)
			heads[am[p]] = cq.Term{Var: v}
		}
		qa.Body = []cq.Atom{atom}
		qa.Head = heads
		aq[j] = qa
		// β's view for r1: r1(Y0..Yn) :- r2(...) with body var at am[p]
		// appearing at head position p.
		qb := &cq.Query{HeadRel: r1.Name}
		atom2 := cq.Atom{Rel: r2.Name}
		for pp := 0; pp < r2.Arity(); pp++ {
			atom2.Vars = append(atom2.Vars, cq.Var(fmt.Sprintf("Y%d", pp)))
		}
		heads2 := make([]cq.Term, r1.Arity())
		for p := 0; p < r1.Arity(); p++ {
			heads2[p] = cq.Term{Var: atom2.Vars[am[p]]}
		}
		qb.Body = []cq.Atom{atom2}
		qb.Head = heads2
		bq[i] = qb
	}
	alpha, err = New(s1, s2, aq)
	if err != nil {
		return nil, nil, err
	}
	beta, err = New(s2, s1, bq)
	if err != nil {
		return nil, nil, err
	}
	return alpha, beta, nil
}
