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
// position of `from` in the instance tree, searching the enclosing scopes
// from innermost to outermost. It never crosses Repetition/Tabular item
// boundaries (a reference inside an item resolves within that item or in
// scopes enclosing the whole repetition, never in sibling items).
func FindRef(from *Value, name string) *Value {
	cur := from
	for cur != nil {
		if hit := scanScope(cur, name); hit != nil {
			return hit
		}
		p := cur.Parent
		if p != nil && (p.Node.Kind == graph.Repetition || p.Node.Kind == graph.Tabular) {
			cur = p.Parent // skip sibling items
		} else {
			cur = p
		}
	}
	return nil
}

func scanScope(v *Value, name string) *Value {
	n := v.Node
	if n.Origin.Name == name &&
		(n.Origin.Role == graph.RoleWhole || n.Origin.Role == graph.RoleLengthOf) &&
		(n.Kind == graph.Terminal || n.Comb != nil) {
		return v
	}
	if n.Kind == graph.Repetition || n.Kind == graph.Tabular {
		return nil // do not look inside items
	}
	for _, k := range v.Kids {
		if hit := scanScope(k, name); hit != nil {
			return hit
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

// locate finds the unique value-bearing instance node for original field
// name within the scope, without crossing Repetition/Tabular items.
func (s *Scope) locate(name string) (*Value, error) {
	var found *Value
	var walk func(v *Value) error
	walk = func(v *Value) error {
		n := v.Node
		if n.Origin.Name == name && n.Origin.Role == graph.RoleWhole {
			if found != nil {
				return fmt.Errorf("field %q is ambiguous in this scope", name)
			}
			found = v
			return nil
		}
		switch n.Kind {
		case graph.Repetition, graph.Tabular:
			// Items are addressed through item scopes.
			return nil
		case graph.Optional:
			if !v.Present {
				// Keep looking elsewhere; if the target is inside
				// this optional the caller gets a "not found" error
				// suggesting Enable.
				return nil
			}
		}
		for _, k := range v.Kids {
			if err := walk(k); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range s.roots {
		if err := walk(r); err != nil {
			return nil, err
		}
	}
	if found == nil {
		if s.m.nodeInGraph(name) {
			return nil, fmt.Errorf("field %q is not reachable in this scope (inside a disabled optional or a repetition item?)", name)
		}
		return nil, fmt.Errorf("unknown field %q", name)
	}
	return found, nil
}

// locateContainer finds an instance node by original name regardless of
// its role (used for Optional/Repetition/Tabular containers).
func (s *Scope) locateContainer(name string) (*Value, error) {
	var found *Value
	var walk func(v *Value)
	walk = func(v *Value) {
		if found != nil {
			return
		}
		n := v.Node
		// Only RoleWhole containers match: RoleGroup wrappers (e.g. the
		// Sequence introduced by BoundaryChange) are transparent and the
		// search descends into them to find the real container.
		if n.Origin.Name == name && n.Origin.Role == graph.RoleWhole && n.Kind != graph.Terminal {
			found = v
			return
		}
		switch n.Kind {
		case graph.Repetition, graph.Tabular:
			return
		case graph.Optional:
			if !v.Present {
				return
			}
		}
		for _, k := range v.Kids {
			walk(k)
		}
	}
	for _, r := range s.roots {
		walk(r)
	}
	if found == nil {
		return nil, fmt.Errorf("container %q not reachable in this scope", name)
	}
	return found, nil
}

func (m *Message) nodeInGraph(name string) bool {
	return m.G.FindOriginal(name) != nil
}

// opWidth returns the modulus width for integer value operations on n.
func opWidth(n *graph.Node) int {
	switch {
	case n.Comb != nil:
		return n.Comb.Width
	case n.Enc == graph.EncUint:
		return n.Boundary.Size
	default:
		return 8 // EncASCII: full 64-bit arithmetic
	}
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
		if w := opWidth(n); w < 8 && v.U >= uint64(1)<<(8*w) {
			return fmt.Errorf("field %q: value %d overflows %d-byte field", n.Origin.Name, v.U, w)
		}
	}
	if n.Kind == graph.Terminal && n.Enc == graph.EncBytes && n.Boundary.Kind == graph.Delimited && v.IsBytes {
		if containsSub(v.B, n.Boundary.Delim) {
			return fmt.Errorf("field %q: value contains the delimiter %q", n.Origin.Name, n.Boundary.Delim)
		}
	}
	tv, err := graph.ApplyOps(n.Ops, opWidth(n), v)
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
	out, err := graph.InvertOps(n.Ops, opWidth(n), tv)
	if err != nil {
		return graph.Val{}, fmt.Errorf("field %q: %w", n.Origin.Name, err)
	}
	return out, nil
}

// findRoleHolder is the instance-level analog of graph.FindRoleHolder:
// the shallowest descendant of iv carrying the split role, seen through
// RoleGroup wrappers (e.g. a BoundaryChange applied to a split half).
func findRoleHolder(iv *Value, role graph.Role) *Value {
	var rec func(v *Value) *Value
	rec = func(v *Value) *Value {
		if v.Node.Origin.Role == role {
			return v
		}
		// Sealed sub-units: the halves of a nested or foreign split
		// belong to that split, not to the one being resolved.
		if v.Node.Origin.Role == graph.RoleSplitLeft || v.Node.Origin.Role == graph.RoleSplitRight ||
			v.Node.Comb != nil {
			return nil
		}
		if v.Node.Kind == graph.Repetition || v.Node.Kind == graph.Tabular {
			return nil
		}
		for _, k := range v.Kids {
			if hit := rec(k); hit != nil {
				return hit
			}
		}
		return nil
	}
	for _, k := range iv.Kids {
		if hit := rec(k); hit != nil {
			return hit
		}
	}
	return nil
}

// splitHalves returns the instance nodes holding the left and right
// halves of a split node, identified by role (position-independent, since
// ChildMove may have swapped them, and wrapper-transparent).
func splitHalves(iv *Value) (l, r *Value) {
	return findRoleHolder(iv, graph.RoleSplitLeft), findRoleHolder(iv, graph.RoleSplitRight)
}

// containsSub reports whether b contains sub.
func containsSub(b, sub []byte) bool {
	if len(sub) == 0 || len(b) < len(sub) {
		return false
	}
	for i := 0; i+len(sub) <= len(b); i++ {
		match := true
		for j := range sub {
			if b[i+j] != sub[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
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
	iv, err := s.locateContainer(name)
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
	iv, err := s.locateContainer(name)
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
	iv, err := s.locateContainer(name)
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
	iv, err := s.locateContainer(name)
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
	case n.Kind == graph.Sequence && isSplitPair(n):
		// One logical item spans both halves (which may sit inside
		// RoleGroup wrappers added by later transformations).
		var roots []*Value
		for _, role := range []graph.Role{graph.RoleSplitLeft, graph.RoleSplitRight} {
			half := findRoleHolder(iv, role)
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

// isSplitPair reports whether n is the pair Sequence introduced by
// TabSplit or RepSplit.
func isSplitPair(n *graph.Node) bool { return n.IsSplitPair() }

// Items returns one scope per item of a Repetition or Tabular.
func (s *Scope) Items(name string) ([]*Scope, error) {
	iv, err := s.locateContainer(name)
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
	case n.Kind == graph.Sequence && isSplitPair(n):
		var halves [][]*Scope
		for _, role := range []graph.Role{graph.RoleSplitLeft, graph.RoleSplitRight} {
			half := findRoleHolder(iv, role)
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
