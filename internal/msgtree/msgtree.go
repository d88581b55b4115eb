// Package msgtree implements message instances: abstract syntax trees
// (ASTs) that instantiate a message format graph (paper §V-A), plus the
// accessor interface (setters and getters) the core application uses.
//
// The accessors address fields by their ORIGINAL specification names even
// when the underlying graph has been obfuscated: aggregation
// transformations (Split*, Const*) are performed on the fly inside the
// setters and getters, so the process memory only ever holds the
// intermediate representation described in the paper (§VI) — never the
// plain message.
package msgtree

import (
	"bytes"
	"fmt"

	"protoobf/internal/graph"
	"protoobf/internal/rng"
)

// Value is one node of a message AST. It mirrors a graph.Node.
type Value struct {
	Node   *graph.Node
	Parent *Value
	// Bytes holds the wire-level (post-transformation) bytes of a
	// Terminal node.
	Bytes []byte
	// Kids are the instantiated children. For Repetition/Tabular nodes
	// they are the items (each an instance of the single child node).
	Kids []*Value
	// Present tells whether an Optional subtree is instantiated.
	Present bool
	// set tracks whether a Terminal has been assigned a value.
	set bool
}

// Message is an AST under construction or resulting from a parse.
type Message struct {
	G    *graph.Graph
	Root *Value
	Rng  *rng.R
}

// New creates an empty message instance for graph g. The random source is
// used by Split* setters (a fresh split for every message, which is what
// gives "various representations of the same message", paper table II)
// and to fill padding fields.
func New(g *graph.Graph, r *rng.R) *Message {
	m := &Message{G: g, Rng: r}
	m.Root = m.instantiate(g.Root, nil)
	return m
}

// instantiate builds the skeleton Value for node n.
func (m *Message) instantiate(n *graph.Node, parent *Value) *Value {
	v := &Value{}
	m.fill(v, n, parent)
	return v
}

// fill builds the skeleton of node n in the slot v. A Sequence's
// children share one slab, so a sequence costs two allocations however
// many children it has.
func (m *Message) fill(v *Value, n *graph.Node, parent *Value) {
	*v = Value{Node: n, Parent: parent}
	switch n.Kind {
	case graph.Terminal:
		if n.Origin.Role == graph.RolePad {
			v.Bytes = m.Rng.PadBytes(n.Boundary.Size)
			v.set = true
		}
	case graph.Sequence:
		v.Kids = Slab(len(n.Children))
		for i, c := range n.Children {
			m.fill(v.Kids[i], c, v)
		}
	case graph.Optional:
		// Child instantiated by Enable.
	case graph.Repetition, graph.Tabular:
		// Items appended by Add.
	}
}

// Slab returns n pointers into one fresh []Value, for the children of
// one Sequence.
func Slab(n int) []*Value {
	slab := make([]Value, n)
	kids := make([]*Value, n)
	for i := range slab {
		kids[i] = &slab[i]
	}
	return kids
}

// IsSet reports whether a Terminal instance holds a value.
func (v *Value) IsSet() bool { return v.set }

// SetWire assigns raw wire bytes to a Terminal instance (used by the
// parser; the bytes are stored as-is, transformations are inverted by the
// getters).
func (v *Value) SetWire(b []byte) {
	v.Bytes = b
	v.set = true
}

// FindRef resolves a reference to the original field name from the
// position of `from` in the instance tree. It climbs the enclosing scopes
// from innermost to outermost; in the first whose graph subtree holds the
// name's carrier, it follows the graph path down the instance. Neither
// step enters Repetition/Tabular items, so a reference inside an item
// resolves within that item or in scopes enclosing the whole repetition,
// never in sibling items. The result is nil when no scope holds the
// carrier or its instance is not built or parsed yet.
func FindRef(from *Value, name string) *Value {
	var below *graph.Node // the child of cur the climb came from
	for cur := from; cur != nil; below, cur = cur.Node, cur.Parent {
		if t := holder(cur.Node, name, true, below); t != nil {
			return reach(cur, t)
		}
	}
	return nil
}

// holder returns the node of n's subtree (n included) that carries the
// original name: its RoleWhole node or, when refs is set, also a
// synthetic RoleLengthOf field. This is the carrier graph.Validate checks
// references against. The walk does not enter Repetition/Tabular items,
// and it stops at n's child stop: a reference target parses before its
// dependent (graph.Validate), so it is never in or after the child that
// encloses the dependent.
func holder(n *graph.Node, name string, refs bool, stop *graph.Node) *graph.Node {
	if n.Origin.Name == name && (n.Origin.Role == graph.RoleWhole || refs && n.Origin.Role == graph.RoleLengthOf) {
		return n
	}
	if n.Kind == graph.Repetition || n.Kind == graph.Tabular {
		return nil
	}
	for _, c := range n.Children {
		if c == stop {
			break
		}
		if t := holder(c, name, refs, nil); t != nil {
			return t
		}
	}
	return nil
}

// reach returns the instance of graph node t under v by following t's
// parent chain down from v. It returns nil when t is nil or not under
// v.Node, and when the path meets a disabled Optional, a Repetition or
// Tabular item, or a sibling not built or parsed yet.
func reach(v *Value, t *graph.Node) *Value {
	if t == nil {
		return nil
	}
	if t == v.Node {
		return v
	}
	p := reach(v, t.Parent)
	if p == nil {
		return nil
	}
	switch p.Node.Kind {
	case graph.Sequence:
		// A parse in progress has built only the children it has
		// finished; t may not be among them yet.
		for i, c := range p.Node.Children {
			if c == t && i < len(p.Kids) {
				return p.Kids[i]
			}
		}
	case graph.Optional:
		if p.Present && len(p.Kids) == 1 {
			return p.Kids[0]
		}
	}
	return nil
}

// Scope is an accessor cursor over one or more instance subtrees. A scope
// usually wraps a single subtree; after a TabSplit transformation one
// original item spans the two halves of the pair, hence the slice.
type Scope struct {
	m     *Message
	roots []*Value
}

// Scope returns the root scope of the message.
func (m *Message) Scope() *Scope {
	return &Scope{m: m, roots: []*Value{m.Root}}
}

// locate finds the instance node of the original field name within the
// scope, a value or a container, without crossing Repetition/Tabular
// items.
func (s *Scope) locate(name string) (*Value, error) {
	for _, r := range s.roots {
		if v := reach(r, holder(r.Node, name, false, nil)); v != nil {
			return v, nil
		}
	}
	if s.m.G.FindOriginal(name) != nil {
		return nil, fmt.Errorf("field %q is not reachable in this scope (inside a disabled optional or a repetition item?)", name)
	}
	return nil, fmt.Errorf("unknown field %q", name)
}

// SetNodeValue assigns the user-level value v to the value-bearing
// instance node iv, applying the node's aggregation pipeline on the fly:
// Const* operations first, then Split* decompositions recursively.
func (m *Message) SetNodeValue(iv *Value, v graph.Val) error {
	n := iv.Node
	if n.MinLen > 0 && v.IsBytes && len(v.B) < n.MinLen {
		return fmt.Errorf("field %q: value %d bytes, minimum %d", n.Origin.Name, len(v.B), n.MinLen)
	}
	// Overflow must surface before the value pipeline masks it away:
	// every op is a bijection modulo 2^(8*width), so information above
	// the width is lost silently otherwise.
	if !v.IsBytes && n.Enc == graph.EncUint {
		if w := n.OpWidth(); w < 8 && v.U >= uint64(1)<<(8*w) {
			return fmt.Errorf("field %q: value %d overflows %d-byte field", n.Origin.Name, v.U, w)
		}
	}
	if n.Kind == graph.Terminal && n.Enc == graph.EncBytes && n.Boundary.Kind == graph.Delimited && v.IsBytes {
		if bytes.Contains(v.B, n.Boundary.Delim) {
			return fmt.Errorf("field %q: value contains the delimiter %q", n.Origin.Name, n.Boundary.Delim)
		}
	}
	tv, err := graph.ApplyOps(n.Ops, n.OpWidth(), v)
	if err != nil {
		return fmt.Errorf("field %q: %w", n.Origin.Name, err)
	}
	if n.Comb == nil {
		if n.Kind != graph.Terminal {
			return fmt.Errorf("field %q: not a value-bearing node", n.Origin.Name)
		}
		width := 0
		if n.Enc == graph.EncUint {
			width = n.Boundary.Size
		}
		b, err := graph.EncodeTerminal(n.Enc, width, tv)
		if err != nil {
			return fmt.Errorf("field %q: %w", n.Origin.Name, err)
		}
		if n.Boundary.Kind == graph.Fixed && len(b) != n.Boundary.Size {
			return fmt.Errorf("field %q: %d bytes for a %d-byte fixed field", n.Origin.Name, len(b), n.Boundary.Size)
		}
		iv.Bytes = b
		iv.set = true
		return nil
	}
	// Split node: decompose and recurse into the two halves by role.
	if n.Comb.Kind == graph.CombCat && !tv.IsBytes {
		// Concatenation splits operate on the byte representation.
		raw := graph.EncodeUintBE(tv.U, n.Comb.Width)
		tv = graph.BytesVal(raw)
	}
	l, r, err := graph.SplitVals(*n.Comb, tv, m.Rng.Uint64())
	if err != nil {
		return fmt.Errorf("field %q: %w", n.Origin.Name, err)
	}
	lv, rv := splitHalves(iv)
	if lv == nil || rv == nil {
		return fmt.Errorf("field %q: split halves missing", n.Origin.Name)
	}
	if err := m.SetNodeValue(lv, l); err != nil {
		return err
	}
	return m.SetNodeValue(rv, r)
}

// GetNodeValue recovers the user-level value of a value-bearing instance
// node, inverting splits and value operations.
func (m *Message) GetNodeValue(iv *Value) (graph.Val, error) {
	n := iv.Node
	var tv graph.Val
	if n.Comb == nil {
		if n.Kind != graph.Terminal {
			return graph.Val{}, fmt.Errorf("field %q: not a value-bearing node", n.Origin.Name)
		}
		if !iv.set {
			return graph.Val{}, fmt.Errorf("field %q: not set", n.Origin.Name)
		}
		v, err := graph.DecodeTerminal(n.Enc, iv.Bytes)
		if err != nil {
			return graph.Val{}, fmt.Errorf("field %q: %w", n.Origin.Name, err)
		}
		tv = v
	} else {
		lv, rv := splitHalves(iv)
		if lv == nil || rv == nil {
			return graph.Val{}, fmt.Errorf("field %q: split halves missing", n.Origin.Name)
		}
		l, err := m.GetNodeValue(lv)
		if err != nil {
			return graph.Val{}, err
		}
		r, err := m.GetNodeValue(rv)
		if err != nil {
			return graph.Val{}, err
		}
		v, err := graph.CombineVals(*n.Comb, l, r)
		if err != nil {
			return graph.Val{}, fmt.Errorf("field %q: %w", n.Origin.Name, err)
		}
		if n.Comb.Kind == graph.CombCat && n.Enc != graph.EncBytes {
			dec, err := graph.DecodeTerminal(n.Enc, v.B)
			if err != nil {
				return graph.Val{}, fmt.Errorf("field %q: %w", n.Origin.Name, err)
			}
			v = dec
		}
		tv = v
	}
	out, err := graph.InvertOps(n.Ops, n.OpWidth(), tv)
	if err != nil {
		return graph.Val{}, fmt.Errorf("field %q: %w", n.Origin.Name, err)
	}
	return out, nil
}

// splitHalves returns the instance nodes holding the left and right
// halves of a split node, identified by role (position-independent, since
// ChildMove may have swapped them, and wrapper-transparent).
func splitHalves(iv *Value) (l, r *Value) {
	return reach(iv, graph.FindRoleHolder(iv.Node, graph.RoleSplitLeft)),
		reach(iv, graph.FindRoleHolder(iv.Node, graph.RoleSplitRight))
}

// --- public accessor API -------------------------------------------------

// SetUint assigns an integer value to the original field name.
func (s *Scope) SetUint(name string, u uint64) error {
	return s.set(name, graph.UintVal(u))
}

// SetBytes assigns a byte value to the original field name.
func (s *Scope) SetBytes(name string, b []byte) error {
	return s.set(name, graph.BytesVal(b))
}

// SetString assigns a string value to the original field name.
func (s *Scope) SetString(name, v string) error {
	return s.set(name, graph.BytesVal([]byte(v)))
}

func (s *Scope) set(name string, v graph.Val) error {
	iv, err := s.locate(name)
	if err != nil {
		return err
	}
	if iv.Node.AutoFill {
		return fmt.Errorf("field %q is computed by the serializer", name)
	}
	return s.m.SetNodeValue(iv, v)
}

// GetUint reads an integer field.
func (s *Scope) GetUint(name string) (uint64, error) {
	v, err := s.get(name)
	if err != nil {
		return 0, err
	}
	if v.IsBytes {
		return 0, fmt.Errorf("field %q holds bytes", name)
	}
	return v.U, nil
}

// GetBytes reads a byte field.
func (s *Scope) GetBytes(name string) ([]byte, error) {
	v, err := s.get(name)
	if err != nil {
		return nil, err
	}
	if !v.IsBytes {
		return nil, fmt.Errorf("field %q holds an integer", name)
	}
	return v.B, nil
}

func (s *Scope) get(name string) (graph.Val, error) {
	iv, err := s.locate(name)
	if err != nil {
		return graph.Val{}, err
	}
	return s.m.GetNodeValue(iv)
}

// Enable instantiates an Optional subtree and returns a scope over it.
// The caller remains responsible for setting the guard field to a value
// satisfying the presence predicate.
func (s *Scope) Enable(name string) (*Scope, error) {
	iv, err := s.locate(name)
	if err != nil {
		return nil, err
	}
	if iv.Node.Kind != graph.Optional {
		return nil, fmt.Errorf("field %q is not optional", name)
	}
	if !iv.Present {
		iv.Present = true
		iv.Kids = []*Value{s.m.instantiate(iv.Node.Child(), iv)}
	}
	return &Scope{m: s.m, roots: iv.Kids}, nil
}

// Disable removes an Optional subtree.
func (s *Scope) Disable(name string) error {
	iv, err := s.locate(name)
	if err != nil {
		return err
	}
	if iv.Node.Kind != graph.Optional {
		return fmt.Errorf("field %q is not optional", name)
	}
	iv.Present = false
	iv.Kids = nil
	return nil
}

// Present reports whether an Optional subtree is instantiated.
func (s *Scope) Present(name string) (bool, error) {
	iv, err := s.locate(name)
	if err != nil {
		return false, err
	}
	if iv.Node.Kind != graph.Optional {
		return false, fmt.Errorf("field %q is not optional", name)
	}
	return iv.Present, nil
}

// Add appends one item to a Repetition or Tabular and returns its scope.
// When the container was split (TabSplit/RepSplit) the returned scope
// spans the corresponding item of every half.
func (s *Scope) Add(name string) (*Scope, error) {
	iv, err := s.locate(name)
	if err != nil {
		return nil, err
	}
	return s.m.addItem(iv)
}

func (m *Message) addItem(iv *Value) (*Scope, error) {
	n := iv.Node
	switch {
	case n.Kind == graph.Repetition || n.Kind == graph.Tabular:
		item := m.instantiate(n.Child(), iv)
		iv.Kids = append(iv.Kids, item)
		return &Scope{m: m, roots: []*Value{item}}, nil
	case n.IsSplitPair():
		// One logical item spans both halves (which may sit inside
		// RoleGroup wrappers added by later transformations).
		var roots []*Value
		for _, role := range []graph.Role{graph.RoleSplitLeft, graph.RoleSplitRight} {
			half := reach(iv, graph.FindRoleHolder(n, role))
			if half == nil {
				return nil, fmt.Errorf("field %q: split half %v missing", n.Origin.Name, role)
			}
			sub, err := m.addItem(half)
			if err != nil {
				return nil, err
			}
			roots = append(roots, sub.roots...)
		}
		return &Scope{m: m, roots: roots}, nil
	default:
		return nil, fmt.Errorf("field %q is not repeated", n.Origin.Name)
	}
}

// Items returns one scope per item of a Repetition or Tabular.
func (s *Scope) Items(name string) ([]*Scope, error) {
	iv, err := s.locate(name)
	if err != nil {
		return nil, err
	}
	return s.m.itemScopes(iv)
}

func (m *Message) itemScopes(iv *Value) ([]*Scope, error) {
	n := iv.Node
	switch {
	case n.Kind == graph.Repetition || n.Kind == graph.Tabular:
		out := make([]*Scope, len(iv.Kids))
		for i, k := range iv.Kids {
			out[i] = &Scope{m: m, roots: []*Value{k}}
		}
		return out, nil
	case n.IsSplitPair():
		var halves [][]*Scope
		for _, role := range []graph.Role{graph.RoleSplitLeft, graph.RoleSplitRight} {
			half := reach(iv, graph.FindRoleHolder(n, role))
			if half == nil {
				return nil, fmt.Errorf("field %q: split half %v missing", n.Origin.Name, role)
			}
			hs, err := m.itemScopes(half)
			if err != nil {
				return nil, err
			}
			halves = append(halves, hs)
		}
		if len(halves) != 2 || len(halves[0]) != len(halves[1]) {
			return nil, fmt.Errorf("field %q: split halves have mismatched item counts", n.Origin.Name)
		}
		out := make([]*Scope, len(halves[0]))
		for i := range out {
			out[i] = &Scope{m: m, roots: append(append([]*Value{}, halves[0][i].roots...), halves[1][i].roots...)}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("field %q is not repeated", n.Origin.Name)
	}
}

// Count returns the number of items in a Repetition or Tabular.
func (s *Scope) Count(name string) (int, error) {
	items, err := s.Items(name)
	if err != nil {
		return 0, err
	}
	return len(items), nil
}
