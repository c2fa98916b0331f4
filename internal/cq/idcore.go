package cq

import (
	"keyedeq/internal/instance"
	"keyedeq/internal/invariant"
	"keyedeq/internal/value"
)

// This file holds the ID-space primitives of the streamed searcher
// (iter.go): interning query values against the frozen view (with
// ghost IDs for values it never saw), decoding IDs back to surface
// values, binding a candidate row, unwinding by mark, and the masked
// cancellation-polling node counter.

// internID resolves a surface value to its frozen ID, or to a ghost ID
// when the frozen view never saw it.  Ghosts are deduplicated per
// distinct value so two prebindings of the same absent constant agree,
// exactly as surface-value comparisons would.
func (s *streamSearcher) internID(v value.Value) value.ID {
	if id, ok := s.fz.Interner.Lookup(v); ok {
		return id
	}
	for i, g := range s.ghostVals {
		if g == v {
			return ^value.ID(0) - value.ID(i)
		}
	}
	s.ghostVals = append(s.ghostVals, v)
	return ^value.ID(0) - value.ID(len(s.ghostVals)-1)
}

// decodeID is the boundary where IDs turn back into surface values.
func (s *streamSearcher) decodeID(id value.ID) value.Value {
	if n := len(s.ghostVals); n > 0 && id >= ^value.ID(0)-value.ID(n-1) {
		return s.ghostVals[^value.ID(0)-id]
	}
	v, ok := s.fz.Interner.Decode(id)
	invariant.Mustf(ok, "cq: streamed search bound foreign ID %d", id)
	return v
}

// tryBind extends the binding with row ri at step st; the caller
// unwinds partial adds with unbindTo(mark).
func (s *streamSearcher) tryBind(st *planStep, fr *instance.FrozenRelation, ri int) bool {
	row := fr.Row(ri)
	for p, id := range st.roots {
		if s.bound[id] {
			if s.binding[id] != row[p] {
				return false
			}
			continue
		}
		s.binding[id] = row[p]
		s.bound[id] = true
		s.addedStack = append(s.addedStack, id)
	}
	return true
}

// unbindTo unwinds every binding pushed since the caller's mark.
func (s *streamSearcher) unbindTo(mark int) {
	for _, id := range s.addedStack[mark:] {
		s.bound[id] = false
	}
	s.addedStack = s.addedStack[:mark]
}

// countNode advances the node counter and polls the context once every
// cancelCheckMask+1 nodes.  It reports whether the search may continue.
// The canceled check comes before the increment: once a poll trips,
// no further candidate is counted, so a cancelled search reports at
// most cancelCheckMask+1 nodes past the cancellation.
func (s *streamSearcher) countNode() bool {
	if s.canceled != nil {
		return false
	}
	s.stats.Nodes++
	if s.stats.Nodes&cancelCheckMask == 0 {
		if err := s.ctx.Err(); err != nil {
			s.canceled = err
			return false
		}
	}
	return true
}
