// Package wire implements the message serializer and parser of the
// framework (paper §V-C): a depth-first traversal of the message AST that
// executes the ordering transformations on the fly while constructing the
// obfuscated byte stream, and the inverse traversal that rebuilds the AST
// from obfuscated bytes.
//
// Serialization is two-phase: a layout pass computes the sizes and counts
// feeding every auto-filled field (Length/Counter targets, synthetic
// BoundaryChange length fields), then an emit pass writes bytes,
// reversing ReadFromEnd regions and inserting delimiters and terminators.
package wire

import (
	"fmt"

	"protoobf/internal/graph"
	"protoobf/internal/msgtree"
)

// Serialize renders the message to obfuscated wire bytes.
func Serialize(m *msgtree.Message) ([]byte, error) {
	return SerializeAppend(m, nil)
}

// SerializeAppend renders the message to obfuscated wire bytes appended
// to buf (which may be nil or a recycled buffer) and returns the extended
// slice. A steady-state send loop passing its previous buffer back in
// does not allocate: ReadFromEnd regions are reversed in place rather
// than staged through a scratch buffer.
func SerializeAppend(m *msgtree.Message, buf []byte) ([]byte, error) {
	if err := fill(m, m.Root); err != nil {
		return buf, err
	}
	return emit(m.Root, buf, nil)
}

// fill walks the instance tree and assigns every auto-filled reference
// target: for a Length-bounded node D referencing R, R's value is the
// content size of D; for a Tabular D, R is the item count. The pass also
// checks RepSplit pair halves have matching item counts. The dedup map is
// allocated lazily so messages without references serialize without it.
func fill(m *msgtree.Message, root *msgtree.Value) error {
	var filled map[*msgtree.Value]uint64
	var walk func(v *msgtree.Value) error
	walk = func(v *msgtree.Value) error {
		n := v.Node
		if n.Kind == graph.Optional && !v.Present {
			return nil
		}
		if ref := n.Boundary.Ref; ref != "" {
			// The target precedes its dependent (graph.Validate), so it
			// resolves from the enclosing scope.
			target := msgtree.FindRef(v.Parent, ref)
			if target == nil {
				return fmt.Errorf("serialize: reference %q of node %q not found in scope", ref, n.Name)
			}
			var val uint64
			switch n.Boundary.Kind {
			case graph.Length:
				sz, err := sizeOf(v)
				if err != nil {
					return err
				}
				val = uint64(sz)
			case graph.Counter:
				val = uint64(len(v.Kids))
			default:
				return fmt.Errorf("serialize: node %q has a reference with boundary %v", n.Name, n.Boundary.Kind)
			}
			if prev, dup := filled[target]; dup {
				if prev != val {
					return fmt.Errorf("serialize: reference %q filled with both %d and %d", ref, prev, val)
				}
			} else {
				if filled == nil {
					filled = make(map[*msgtree.Value]uint64)
				}
				filled[target] = val
				if err := m.SetNodeValue(target, graph.UintVal(val)); err != nil {
					return fmt.Errorf("serialize: fill %q: %w", ref, err)
				}
			}
		}
		if n.Pair != nil {
			if len(v.Kids) != 2 {
				return fmt.Errorf("serialize: rep-split pair %q has %d halves", n.Name, len(v.Kids))
			}
			if a, b := len(v.Kids[0].Kids), len(v.Kids[1].Kids); a != b {
				return fmt.Errorf("serialize: rep-split pair %q has %d vs %d items", n.Name, a, b)
			}
		}
		for _, k := range v.Kids {
			if err := walk(k); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root)
}

// sizeOf computes the serialized content size of an instance subtree.
// Auto-filled terminals have fixed widths, so sizes never depend on the
// values fill assigns, making a single pass sufficient.
func sizeOf(v *msgtree.Value) (int, error) {
	n := v.Node
	switch n.Kind {
	case graph.Terminal:
		sz := 0
		if n.Boundary.Kind == graph.Fixed {
			sz = n.Boundary.Size
		} else {
			if !v.IsSet() {
				return 0, fmt.Errorf("serialize: field %q not set", n.Name)
			}
			sz = len(v.Bytes)
		}
		if n.Boundary.Kind == graph.Delimited {
			sz += len(n.Boundary.Delim)
		}
		return sz, nil
	case graph.Optional:
		if !v.Present {
			return 0, nil
		}
		if len(v.Kids) != 1 {
			return 0, fmt.Errorf("serialize: present optional %q without child", n.Name)
		}
		return sizeOf(v.Kids[0])
	case graph.Sequence, graph.Repetition, graph.Tabular:
		total := 0
		for _, k := range v.Kids {
			s, err := sizeOf(k)
			if err != nil {
				return 0, err
			}
			total += s
		}
		if n.Boundary.Kind == graph.Delimited {
			total += len(n.Boundary.Delim)
		}
		return total, nil
	default:
		return 0, fmt.Errorf("serialize: unknown node kind %v", n.Kind)
	}
}

// emit appends the subtree's bytes to out. A ReadFromEnd node emits its
// region normally and then reverses it in place, so no scratch buffer is
// needed; nested reversals compose because each inner region is complete
// (and already reversed) before the outer reversal runs.
//
// When spans is non-nil, emit also records the span of every terminal
// (SerializeWithSpans); the hot path passes nil. A reversed region
// mirrors the spans it appended: a field at [s,e) inside the region
// [start,end) lands at [start+end-e, start+end-s).
func emit(v *msgtree.Value, out []byte, spans *[]Span) ([]byte, error) {
	if v.Node.Reversed {
		start, first := len(out), 0
		if spans != nil {
			first = len(*spans)
		}
		out, err := emitInner(v, out, spans)
		if err != nil {
			return out, err
		}
		end := len(out)
		for i, j := start, end-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		if spans != nil {
			for i := first; i < len(*spans); i++ {
				sp := &(*spans)[i]
				sp.Start, sp.End = start+end-sp.End, start+end-sp.Start
			}
		}
		return out, nil
	}
	return emitInner(v, out, spans)
}

func emitInner(v *msgtree.Value, out []byte, spans *[]Span) ([]byte, error) {
	n := v.Node
	switch n.Kind {
	case graph.Terminal:
		if !v.IsSet() {
			return out, fmt.Errorf("serialize: field %q not set", n.Name)
		}
		if spans != nil {
			*spans = append(*spans, Span{Name: n.Name, Start: len(out), End: len(out) + len(v.Bytes)})
		}
		out = append(out, v.Bytes...)
		if n.Boundary.Kind == graph.Delimited {
			out = append(out, n.Boundary.Delim...)
		}
		return out, nil
	case graph.Optional:
		if !v.Present {
			return out, nil
		}
		return emit(v.Kids[0], out, spans)
	case graph.Sequence, graph.Repetition, graph.Tabular:
		var err error
		for _, k := range v.Kids {
			if out, err = emit(k, out, spans); err != nil {
				return out, err
			}
		}
		if n.Boundary.Kind == graph.Delimited {
			out = append(out, n.Boundary.Delim...)
		}
		return out, nil
	default:
		return out, fmt.Errorf("serialize: unknown node kind %v", n.Kind)
	}
}
