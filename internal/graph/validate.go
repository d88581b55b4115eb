package graph

import (
	"errors"
	"fmt"
	"sync"
)

// ValidationError describes a violated graph invariant.
type ValidationError struct {
	Node string // name of the offending node ("" for graph-level issues)
	Msg  string
}

func (e *ValidationError) Error() string {
	if e.Node == "" {
		return "graph: " + e.Msg
	}
	return fmt.Sprintf("graph: node %q: %s", e.Node, e.Msg)
}

func verr(n *Node, format string, args ...any) error {
	name := ""
	if n != nil {
		name = n.Name
	}
	return &ValidationError{Node: name, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks every structural invariant required for unambiguous,
// invertible serialization and parsing. Transformations are applied
// tentatively and rolled back when the resulting graph does not validate,
// which makes Validate the single source of truth for applicability.
//
// One pre-order pass restores the parent pointers, records each node's
// parse position, fills the name table and checks the per-node
// invariants; the reference, extent and prefix invariants then run over
// that index. Validate writes to the nodes, so it must not run
// concurrently on one graph. Re-validating a graph whose shape the
// pooled scratch has seen allocates nothing.
func (g *Graph) Validate() error {
	if g.Root == nil {
		return verr(nil, "nil root")
	}
	v := validationPool.Get().(*validation)
	defer v.release()

	if g.Root.Parent != nil {
		g.Root.Parent = nil
	}
	last := int32(-1)
	v.index(g.Root, &last)
	if len(v.errs) > 0 {
		return errors.Join(v.errs...)
	}
	// Reference invariants need the provenance table complete. Filled
	// back to front, it keeps the first carrier of each name.
	for i := len(v.order) - 1; i >= 0; i-- {
		if n := v.order[i]; n.Origin.Role == RoleWhole || n.Origin.Role == RoleLengthOf {
			v.origins[n.Origin.Name] = n
		}
	}
	for _, n := range v.order {
		v.report(v.validateRefs(n))
	}
	// Extent invariants for End-bounded, Reversed and RepSplit nodes.
	for _, n := range v.order {
		v.report(validateExtent(n))
	}
	// Prefix-safety of delimited repetitions.
	for _, n := range v.order {
		if n.Kind == Repetition && n.Boundary.Kind == Delimited {
			v.report(validateRepPrefix(n))
		}
	}
	if len(v.errs) > 0 {
		return errors.Join(v.errs...)
	}
	return nil
}

// validation is the scratch of one Validate call. It comes from a pool
// and goes back empty: a compiled graph keeps no validation state but
// the two positions in each node.
type validation struct {
	order []*Node // parse order (depth-first pre-order)
	// names maps each node name to its latest occurrence in parse
	// order; origins maps an original name to the first node that
	// carries its value (see FindOriginal).
	names   map[string]*Node
	origins map[string]*Node
	errs    []error
}

var validationPool = sync.Pool{New: func() any {
	return &validation{names: make(map[string]*Node), origins: make(map[string]*Node)}
}}

func (v *validation) release() {
	clear(v.order)
	v.order = v.order[:0]
	clear(v.names)
	clear(v.origins)
	clear(v.errs)
	v.errs = v.errs[:0]
	validationPool.Put(v)
}

func (v *validation) report(err error) {
	if err != nil {
		v.errs = append(v.errs, err)
	}
}

// index visits n's subtree in parse order. It restores the parent
// pointers (as Rebuild does), numbers the nodes, fills the name table,
// checks the invariants local to each node, and records each node's
// last leaf; last carries the position of the latest leaf seen so far.
func (v *validation) index(n *Node, last *int32) {
	n.pos = int32(len(v.order))
	v.order = append(v.order, n)
	if n.Name == "" {
		v.report(verr(n, "empty name"))
	}
	if prev, dup := v.names[n.Name]; dup {
		v.report(verr(n, "duplicate name (also %q)", prev.Path()))
	}
	v.names[n.Name] = n
	v.report(validateArity(n))
	v.report(validateBoundary(n))
	v.report(validateTerminal(n))
	v.report(validateComb(n))
	v.report(validatePair(n))

	if n.IsLeaf() {
		*last = n.pos
	}
	for _, c := range n.Children {
		// Parent pointers guide message parsing (msgtree), so a graph
		// in use is validated without writing them when they are current.
		if c.Parent != n {
			c.Parent = n
		}
		v.index(c, last)
	}
	// Leaves of the subtree sit at or after n.pos; earlier ones precede it.
	n.lastLeaf = -1
	if *last >= n.pos {
		n.lastLeaf = *last
	}
}

func validateArity(n *Node) error {
	switch n.Kind {
	case Terminal:
		if len(n.Children) != 0 {
			return verr(n, "terminal with %d children", len(n.Children))
		}
	case Sequence:
		if len(n.Children) == 0 {
			return verr(n, "sequence without children")
		}
	case Optional, Repetition, Tabular:
		if len(n.Children) != 1 {
			return verr(n, "%v must have exactly one child, has %d", n.Kind, len(n.Children))
		}
	default:
		return verr(n, "unknown kind %d", int(n.Kind))
	}
	return nil
}

// allowedBoundaries lists the boundary kinds each node kind may carry.
var allowedBoundaries = [...][]BoundaryKind{
	Terminal:   {Fixed, Delimited, Length, End},
	Sequence:   {Delegated, Delimited, Length, End},
	Optional:   {Delegated},
	Repetition: {Delimited, Length, End},
	Tabular:    {Counter},
}

func validateBoundary(n *Node) error {
	b := n.Boundary
	switch b.Kind {
	case Fixed:
		if b.Size <= 0 {
			return verr(n, "fixed boundary with size %d", b.Size)
		}
	case Delimited:
		if len(b.Delim) == 0 {
			return verr(n, "delimited boundary with empty delimiter")
		}
	case Length, Counter:
		if b.Ref == "" {
			return verr(n, "%v boundary without reference", b.Kind)
		}
	case End, Delegated:
	default:
		return verr(n, "unknown boundary kind %d", int(b.Kind))
	}

	// The halves of a RepSplit pair are Repetitions whose count is
	// derived from the enclosing region size; they carry no boundary of
	// their own.
	if n.Kind == Repetition && b.Kind == Delegated && n.Parent != nil && n.Parent.Pair != nil {
		return nil
	}
	if uint(n.Kind) < uint(len(allowedBoundaries)) {
		for _, k := range allowedBoundaries[n.Kind] {
			if b.Kind == k {
				return nil
			}
		}
	}
	return verr(n, "%v boundary not allowed on %v node", b.Kind, n.Kind)
}

func validateTerminal(n *Node) error {
	if n.Kind != Terminal {
		return nil
	}
	switch n.Enc {
	case EncBytes:
	case EncASCII:
		if n.Boundary.Kind == Fixed {
			return verr(n, "ascii terminal cannot have a fixed boundary (digit count varies)")
		}
	case EncUint:
		if n.Boundary.Kind != Fixed {
			return verr(n, "uint terminal requires a fixed boundary, has %v", n.Boundary)
		}
		switch n.Boundary.Size {
		case 1, 2, 4, 8:
		default:
			return verr(n, "uint terminal width %d not in {1,2,4,8}", n.Boundary.Size)
		}
	default:
		return verr(n, "terminal without encoding")
	}
	for _, op := range n.Ops {
		switch op.Kind {
		case OpAdd, OpSub, OpXor:
			if n.Enc == EncBytes {
				return verr(n, "integer op %v on bytes terminal", op.Kind)
			}
		case OpByteAdd, OpByteXor:
			if len(op.KB) == 0 {
				return verr(n, "byte op %v with empty key", op.Kind)
			}
		default:
			return verr(n, "unknown value op %d", int(op.Kind))
		}
	}
	return nil
}

func validateComb(n *Node) error {
	if n.Comb == nil {
		return nil
	}
	if n.Kind != Sequence || len(n.Children) != 2 {
		return verr(n, "combine node must be a two-child sequence")
	}
	switch n.Comb.Kind {
	case CombAdd, CombSub, CombXor:
		if n.Comb.Width <= 0 || n.Comb.Width > 8 {
			return verr(n, "combine width %d invalid", n.Comb.Width)
		}
	case CombCat:
		if n.Comb.SplitAt <= 0 {
			return verr(n, "combine cat split offset %d invalid", n.Comb.SplitAt)
		}
		if n.Enc != EncBytes && (n.Comb.Width <= 0 || n.Comb.Width > 8) {
			return verr(n, "combine cat on integer value needs a width, has %d", n.Comb.Width)
		}
	default:
		return verr(n, "unknown combine kind %d", int(n.Comb.Kind))
	}
	return nil
}

func validatePair(n *Node) error {
	if n.Pair == nil {
		return nil
	}
	if n.Kind != Sequence || len(n.Children) != 2 {
		return verr(n, "rep-split pair must be a two-child sequence")
	}
	for _, c := range n.Children {
		if c.Kind != Repetition {
			return verr(n, "rep-split pair child %q is not a repetition", c.Name)
		}
		if c.Child() == nil {
			return verr(n, "rep-split pair child %q has no element", c.Name)
		}
		// The parser derives the item count from the region size, which
		// requires static element sizes — even after transformations
		// have been applied inside the elements.
		if _, ok := StaticSize(c.Child()); !ok {
			return verr(n, "rep-split pair child %q has a non-static element size", c.Name)
		}
	}
	return nil
}

// validateRefs checks that Length/Counter/Cond references resolve to
// suitable nodes and that every contributing leaf is parsed before the
// dependent node needs the value.
func (v *validation) validateRefs(n *Node) error {
	check := func(ref string, wantAutoFill bool, use string) error {
		target := v.origins[ref]
		if target == nil {
			return verr(n, "%s reference %q does not resolve", use, ref)
		}
		// Length/Counter targets must have a size that does not depend
		// on their (serializer-computed) value, hence EncUint: the
		// two-phase serializer lays out sizes before filling values.
		if target.Enc != EncUint {
			return verr(n, "%s reference %q is not an integer field", use, ref)
		}
		if wantAutoFill && !target.AutoFill {
			return verr(n, "%s reference %q is not auto-filled", use, ref)
		}
		if leaf := leafAtOrAfter(target, n); leaf != nil {
			return verr(n, "%s reference %q: leaf %q parses at or after the dependent node", use, ref, leaf.Name)
		}
		return nil
	}

	switch n.Boundary.Kind {
	case Length:
		if err := check(n.Boundary.Ref, true, "length"); err != nil {
			return err
		}
	case Counter:
		if err := check(n.Boundary.Ref, true, "counter"); err != nil {
			return err
		}
	}
	if n.Kind == Optional {
		ref := n.Cond.Ref
		target := v.origins[ref]
		if target == nil {
			return verr(n, "presence reference %q does not resolve", ref)
		}
		if target.AutoFill {
			return verr(n, "presence reference %q is auto-filled", ref)
		}
		if n.Cond.IsBytes && target.Enc != EncBytes {
			return verr(n, "presence predicate compares bytes but %q is %v", ref, target.Enc)
		}
		if !n.Cond.IsBytes && target.Enc == EncBytes {
			return verr(n, "presence predicate compares an integer but %q is bytes", ref)
		}
		if n.Cond.Op != CondEq && n.Cond.Op != CondNe {
			return verr(n, "unknown presence operator %d", int(n.Cond.Op))
		}
		if leaf := leafAtOrAfter(target, n); leaf != nil {
			return verr(n, "presence reference %q: leaf %q parses at or after the optional node", ref, leaf.Name)
		}
	}
	return nil
}

// leafAtOrAfter returns the first leaf under target that does not parse
// before dependent, or nil when all of them do. The indexed positions
// answer the common case in O(1); only a violation walks the leaves, to
// name the offender.
func leafAtOrAfter(target, dependent *Node) *Node {
	if target.lastLeaf < dependent.pos {
		return nil
	}
	for _, leaf := range Leaves(target) {
		if leaf.pos >= dependent.pos {
			return leaf
		}
	}
	return nil
}

// validateExtent checks that nodes whose parsing requires a pre-computed
// byte extent (End boundaries, Reversed subtrees, RepSplit pairs) can
// actually obtain one.
func validateExtent(n *Node) error {
	needsEndRegion := n.Boundary.Kind == End
	if n.Reversed || n.Pair != nil {
		if _, ok := StaticSize(n); !ok {
			switch n.Boundary.Kind {
			case Length:
				// extent given by the reference
			case End:
				needsEndRegion = true
			default:
				what := "reversed node"
				if n.Pair != nil {
					what = "rep-split pair"
				}
				return verr(n, "%s has no computable extent (boundary %v)", what, n.Boundary)
			}
		}
	}
	if !needsEndRegion {
		return nil
	}
	// An End-bounded node consumes up to the end of the innermost
	// enclosing region. That end must be known when the parser reaches
	// the node, and nothing else may serialize after the node within the
	// region.
	cur := n
	for {
		p := cur.Parent
		if p == nil {
			return nil // region is the whole message
		}
		// Nothing may follow cur inside p.
		if p.Kind == Sequence {
			last := p.Children[len(p.Children)-1]
			if last != cur {
				return verr(n, "end-bounded node is not last in sequence %q", p.Name)
			}
		}
		if p.Kind == Repetition || p.Kind == Tabular {
			return verr(n, "end-bounded node inside %v %q would consume all items", p.Kind, p.Name)
		}
		if p.Reversed {
			// The reversed ancestor has its own computable extent
			// (validated above), which bounds the region.
			return nil
		}
		switch p.Boundary.Kind {
		case Length:
			return nil // region end known from the reference
		case Delimited:
			return verr(n, "end-bounded node inside delimited region %q", p.Name)
		}
		cur = p
	}
}

// validateRepPrefix enforces prefix-safety for delimited repetitions: the
// first byte serialized for each item must come from application data that
// the protocol contract keeps distinct from the terminator. Synthetic
// bytes (pads, integer fields, transformed values, reversed regions) at
// the item start could collide with the terminator and make parsing
// ambiguous, so such graphs are rejected.
//
// This check is a soundness improvement over the paper, which relies on
// per-transformation parent-boundary constraints only.
func validateRepPrefix(rep *Node) error {
	item := rep.Child()
	leaf, onPath, reversed := firstWireLeaf(item)
	if leaf == nil {
		return verr(rep, "delimited repetition item has no terminal")
	}
	if reversed {
		return verr(rep, "item of delimited repetition starts inside a reversed region")
	}
	if leaf.Origin.Role == RolePad {
		return verr(rep, "item of delimited repetition starts with pad %q", leaf.Name)
	}
	if leaf.Enc == EncUint {
		return verr(rep, "item of delimited repetition starts with integer field %q", leaf.Name)
	}
	if len(leaf.Ops) > 0 {
		return verr(rep, "item of delimited repetition starts with transformed field %q", leaf.Name)
	}
	// The first leaf may itself be Optional-guarded: if the optional is
	// absent, the next leaf starts the item. Conservatively require that
	// the first leaf is not under an Optional between item and leaf.
	for _, pn := range onPath {
		if pn.Kind == Optional {
			return verr(rep, "item of delimited repetition starts with optional subtree %q", pn.Name)
		}
	}
	// An empty first field would make the item start with its own
	// delimiter, which could collide with the terminator scan.
	if leaf.Boundary.Kind != Fixed && leaf.MinLen < 1 {
		return verr(rep, "item of delimited repetition starts with possibly-empty field %q (declare min 1)", leaf.Name)
	}
	return nil
}

// firstWireLeaf returns the leaf providing the first serialized byte of n,
// the chain of nodes from n down to that leaf (n excluded, leaf included),
// and whether that first byte lies inside a reversed region. Reversed
// nodes flip which side serializes first.
func firstWireLeaf(n *Node) (leaf *Node, path []*Node, reversed bool) {
	cur := n
	for {
		if cur.Reversed {
			reversed = !reversed
		}
		if cur.IsLeaf() {
			return cur, path, reversed
		}
		if len(cur.Children) == 0 {
			return nil, path, reversed
		}
		var next *Node
		if reversed {
			next = cur.Children[len(cur.Children)-1]
		} else {
			next = cur.Children[0]
		}
		path = append(path, next)
		cur = next
	}
}

// AutoFillNames returns the set of original field names whose values the
// serializer computes (Length/Counter boundary targets).
func (g *Graph) AutoFillNames() map[string]bool {
	out := make(map[string]bool)
	g.Walk(func(n *Node) bool {
		if n.AutoFill && n.Origin.Role != RolePad {
			out[n.Origin.Name] = true
		}
		return true
	})
	return out
}
