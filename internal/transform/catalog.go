// Package transform implements the generic obfuscating transformations of
// the framework (paper §V-B, tables I and II) and the engine that applies
// randomly selected transformations to a message format graph.
//
// A generic transformation rewrites a graph pattern into another graph
// pattern under applicability constraints. Every transformation is
// invertible by construction: the serializer and parser of package wire
// interpret the annotations (Comb, Ops, Reversed, Pair, provenance roles)
// in both directions, so τ⁻¹∘τ = id holds for the message content.
//
// The engine applies each transformation tentatively and re-validates the
// whole graph, rolling back applications that would make parsing
// ambiguous. This replaces the paper's per-transformation parent-boundary
// constraints with a single sound applicability oracle (see "Transformation
// engine" in docs/ARCHITECTURE.md).
package transform

import (
	"fmt"

	"protoobf/internal/graph"
	"protoobf/internal/rng"
)

// Transform is one generic transformation of table I.
type Transform interface {
	// Name is the paper's name for the transformation.
	Name() string
	// Applicable performs the cheap local applicability checks on node n.
	// The engine performs the global checks by validating the rewritten
	// graph.
	Applicable(g *graph.Graph, n *graph.Node) bool
	// Apply rewrites the graph at node n. It returns a human-readable
	// description of the instantiation (chosen constants, positions).
	//
	// The engine undoes a rejected attempt with the graph.Checkpoint it
	// took at n, so Apply may change only what a checkpoint restores:
	// n's fields, n's slot in its parent (through g.Replace), the root
	// and the fresh-name counter. It may permute the elements of
	// n.Children in place; any other slice of n it changes gets a new
	// header (append is fine) and never has its elements overwritten.
	// Nodes it creates may share n's slices and children.
	// TestCheckpointRollback holds every transformation to this
	// contract.
	Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error)
}

// Catalog returns the full set of generic transformations, in the order
// of table I.
func Catalog() []Transform {
	return []Transform{
		splitArith{kind: graph.CombAdd, name: "SplitAdd"},
		splitArith{kind: graph.CombSub, name: "SplitSub"},
		splitArith{kind: graph.CombXor, name: "SplitXor"},
		splitCat{},
		constOp{op: graph.OpAdd, name: "ConstAdd"},
		constOp{op: graph.OpSub, name: "ConstSub"},
		constOp{op: graph.OpXor, name: "ConstXor"},
		boundaryChange{},
		padInsert{},
		readFromEnd{},
		tabSplit{},
		repSplit{},
		childMove{},
	}
}

// ByName returns the transformation with the given name, or nil.
func ByName(name string) Transform {
	for _, t := range Catalog() {
		if t.Name() == name {
			return t
		}
	}
	return nil
}

// isPad reports whether n is a pad.
func isPad(n *graph.Node) bool { return n.Origin.Role == graph.RolePad }

// uintWidth returns the integer width of a value-bearing node, 0 when it
// is not a fixed-width integer.
func uintWidth(n *graph.Node) int {
	if n.Enc != graph.EncUint {
		return 0
	}
	if n.Comb != nil {
		return n.Comb.Width
	}
	if n.Boundary.Kind == graph.Fixed {
		return n.Boundary.Size
	}
	return 0
}

// --- SplitAdd / SplitSub / SplitXor --------------------------------------

// splitArith replaces an integer terminal v by a sequence of two
// terminals v1, v2 with v = v1 ⊕ v2 (add, sub or xor). A fresh random v1
// is chosen at every serialization, so the same message has many wire
// representations (classification challenge, table II).
type splitArith struct {
	kind graph.CombineKind
	name string
}

func (t splitArith) Name() string { return t.name }

func (t splitArith) Applicable(_ *graph.Graph, n *graph.Node) bool {
	if !n.ValueBearing() || isPad(n) || n.Reversed {
		return false
	}
	// Only plain terminals split; a combine sequence is deepened by
	// splitting its part terminals instead, so split chains nest.
	if n.Comb != nil {
		return false
	}
	return uintWidth(n) > 0
}

func (t splitArith) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	width := uintWidth(n)
	if width == 0 {
		return "", fmt.Errorf("%s: node %q is not a fixed-width integer", t.name, n.Name)
	}
	leftName := g.FreshName(n.Name)
	rightName := g.FreshName(n.Name)
	combName := g.FreshName(n.Name)
	mk := func(name string, role graph.Role) *graph.Node {
		return &graph.Node{
			Name:     name,
			Kind:     graph.Terminal,
			Enc:      graph.EncUint,
			Boundary: graph.Boundary{Kind: graph.Fixed, Size: width},
			Origin:   graph.Origin{Name: n.Origin.Name, Role: role},
		}
	}
	comb := &graph.Node{
		Name:     combName,
		Kind:     graph.Sequence,
		Boundary: graph.Boundary{Kind: graph.Delegated},
		Enc:      n.Enc,
		MinLen:   n.MinLen,
		Origin:   n.Origin,
		Ops:      n.Ops,
		AutoFill: n.AutoFill,
		Comb:     &graph.Combine{Kind: t.kind, Width: width},
		Children: []*graph.Node{
			mk(leftName, graph.RoleSplitLeft),
			mk(rightName, graph.RoleSplitRight),
		},
	}
	if err := g.Replace(n, comb); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s -> %s %s %s", n.Name, leftName, t.kind, rightName), nil
}

// --- SplitCat -------------------------------------------------------------

// splitCat replaces a terminal with value v by a sequence of two
// terminals v1, v2 with v = concatenate(v1, v2). The cut position is
// chosen at obfuscation time and baked into the generated protocol.
type splitCat struct{}

func (splitCat) Name() string { return "SplitCat" }

func (splitCat) Applicable(_ *graph.Graph, n *graph.Node) bool {
	if !n.ValueBearing() || isPad(n) || n.Reversed {
		return false
	}
	if n.Comb != nil {
		// Splitting a combine sequence again splits its value parts,
		// which already happens when the engine revisits the part
		// terminals; re-splitting the whole is not representable.
		return false
	}
	if n.Enc == graph.EncASCII {
		return false // digit count depends on the value
	}
	switch n.Boundary.Kind {
	case graph.Fixed:
		return n.Boundary.Size >= 2
	case graph.Delimited, graph.End:
		return n.Enc == graph.EncBytes && n.MinLen >= 2
	default:
		return false
	}
}

func (t splitCat) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	var cut, width int
	var leftB, rightB graph.Boundary
	rightMin := 0
	switch n.Boundary.Kind {
	case graph.Fixed:
		cut = 1 + r.Intn(n.Boundary.Size-1)
		leftB = graph.Boundary{Kind: graph.Fixed, Size: cut}
		rightB = graph.Boundary{Kind: graph.Fixed, Size: n.Boundary.Size - cut}
		// Width lets setters re-encode integer values to bytes before
		// cutting (CombCat on EncUint).
		width = n.Boundary.Size
	case graph.Delimited, graph.End:
		cut = 1 + r.Intn(n.MinLen-1)
		leftB = graph.Boundary{Kind: graph.Fixed, Size: cut}
		rightB = n.Boundary
		rightMin = n.MinLen - cut
	default:
		return "", fmt.Errorf("SplitCat: boundary %v not splittable", n.Boundary)
	}
	leftName := g.FreshName(n.Name)
	rightName := g.FreshName(n.Name)
	combName := g.FreshName(n.Name)
	comb := &graph.Node{
		Name:     combName,
		Kind:     graph.Sequence,
		Boundary: graph.Boundary{Kind: graph.Delegated},
		Enc:      n.Enc,
		MinLen:   n.MinLen,
		Origin:   n.Origin,
		Ops:      n.Ops,
		AutoFill: n.AutoFill,
		Comb:     &graph.Combine{Kind: graph.CombCat, SplitAt: cut, Width: width},
		Children: []*graph.Node{
			{
				Name: leftName, Kind: graph.Terminal, Enc: graph.EncBytes,
				Boundary: leftB, Origin: graph.Origin{Name: n.Origin.Name, Role: graph.RoleSplitLeft},
			},
			{
				Name: rightName, Kind: graph.Terminal, Enc: graph.EncBytes,
				Boundary: rightB, MinLen: rightMin,
				Origin: graph.Origin{Name: n.Origin.Name, Role: graph.RoleSplitRight},
			},
		},
	}
	if err := g.Replace(n, comb); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s -> %s ++ %s (cut %d)", n.Name, leftName, rightName, cut), nil
}

// --- ConstAdd / ConstSub / ConstXor ---------------------------------------

// constOp substitutes a terminal value v by v ⊕ constant (the constant is
// predefined in the generated protocol).
type constOp struct {
	op   graph.OpKind
	name string
}

func (t constOp) Name() string { return t.name }

func (t constOp) Applicable(_ *graph.Graph, n *graph.Node) bool {
	if !n.ValueBearing() || isPad(n) {
		return false
	}
	switch n.Enc {
	case graph.EncUint:
		return uintWidth(n) > 0
	case graph.EncASCII:
		// Digit-count changes are safe wherever sizes are flexible; the
		// ascii value is never delimiter-confusable (digits only), but a
		// delimited ascii field must not use a digit delimiter.
		if n.Boundary.Kind == graph.Delimited {
			for _, c := range n.Boundary.Delim {
				if c >= '0' && c <= '9' {
					return false
				}
			}
		}
		return true
	case graph.EncBytes:
		// Byte-wise ops on delimited fields could produce the delimiter
		// inside the encoded value; only non-scanned boundaries are safe.
		return n.Boundary.Kind == graph.Fixed || n.Boundary.Kind == graph.Length
	default:
		return false
	}
}

func (t constOp) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	var op graph.ValueOp
	if n.Enc == graph.EncBytes {
		kind := graph.OpByteXor
		if t.op == graph.OpAdd || t.op == graph.OpSub {
			kind = graph.OpByteAdd
		}
		key := r.Bytes(1 + r.Intn(4))
		op = graph.ValueOp{Kind: kind, KB: key}
	} else {
		k := r.Uint64()
		if n.Enc == graph.EncASCII {
			// Keep ascii arithmetic collision-free: additive constants
			// stay small enough that v+k never overflows uint64 for
			// realistic field values.
			k %= 1 << 16
		}
		op = graph.ValueOp{Kind: t.op, K: k}
	}
	n.Ops = append(n.Ops, op)
	return fmt.Sprintf("%s: %s", n.Name, op), nil
}

// --- BoundaryChange --------------------------------------------------------

// boundaryChange turns a Delimited boundary into a Length boundary: the
// node is replaced by a sequence of a synthetic length field and the node
// itself without its delimiter (fields-delimitation challenge, table II).
type boundaryChange struct{}

func (boundaryChange) Name() string { return "BoundaryChange" }

func (boundaryChange) Applicable(_ *graph.Graph, n *graph.Node) bool {
	if n.Boundary.Kind != graph.Delimited {
		return false
	}
	switch n.Kind {
	case graph.Terminal, graph.Repetition, graph.Sequence:
		return true
	default:
		return false
	}
}

func (t boundaryChange) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	lenName := g.FreshName(n.Name + "_len")
	groupName := g.FreshName(n.Name)
	lenField := &graph.Node{
		Name:     lenName,
		Kind:     graph.Terminal,
		Enc:      graph.EncUint,
		Boundary: graph.Boundary{Kind: graph.Fixed, Size: 2},
		Origin:   graph.Origin{Name: lenName, Role: graph.RoleLengthOf},
		AutoFill: true,
	}
	group := &graph.Node{
		Name:     groupName,
		Kind:     graph.Sequence,
		Boundary: graph.Boundary{Kind: graph.Delegated},
		Origin:   graph.Origin{Name: n.Origin.Name, Role: graph.RoleGroup},
	}
	if err := g.Replace(n, group); err != nil {
		return "", err
	}
	n.Boundary = graph.Boundary{Kind: graph.Length, Ref: lenName}
	group.Children = []*graph.Node{lenField, n}
	g.Rebuild()
	return fmt.Sprintf("%s: delimited -> length(%s)", n.Name, lenName), nil
}

// --- PadInsert ---------------------------------------------------------------

// padInsert adds a node with a random value to a Sequence. The parser
// reads and discards it; its content is drawn from a delimiter-safe
// alphabet.
type padInsert struct{}

func (padInsert) Name() string { return "PadInsert" }

func (padInsert) Applicable(_ *graph.Graph, n *graph.Node) bool {
	// Combine pairs and TabSplit/RepSplit pairs must keep exactly their
	// two children (accessors pair halves by role and items by index).
	return n.Kind == graph.Sequence && n.Comb == nil && !n.IsSplitPair()
}

func (t padInsert) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	size := 1 + r.Intn(8)
	pos := r.Intn(len(n.Children) + 1)
	pad := &graph.Node{
		Name:     g.FreshName("pad"),
		Kind:     graph.Terminal,
		Enc:      graph.EncBytes,
		Boundary: graph.Boundary{Kind: graph.Fixed, Size: size},
		Origin:   graph.Origin{Role: graph.RolePad},
	}
	kids := make([]*graph.Node, 0, len(n.Children)+1)
	kids = append(kids, n.Children[:pos]...)
	kids = append(kids, pad)
	kids = append(kids, n.Children[pos:]...)
	n.Children = kids
	g.Rebuild()
	return fmt.Sprintf("%s: %d-byte pad %s at %d", n.Name, size, pad.Name, pos), nil
}

// --- ReadFromEnd ---------------------------------------------------------------

// readFromEnd marks a node as serialized right-to-left. Reading a
// message sub-part in reverse order defeats sequential inference models
// (table II).
type readFromEnd struct{}

func (readFromEnd) Name() string { return "ReadFromEnd" }

func (readFromEnd) Applicable(_ *graph.Graph, n *graph.Node) bool {
	if n.Reversed || isPad(n) {
		return false
	}
	// Reversing a single 1-byte terminal is the identity.
	if sz, ok := graph.StaticSize(n); ok && sz <= 1 {
		return false
	}
	return graph.ExtentComputable(n)
}

func (readFromEnd) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	n.Reversed = true
	return fmt.Sprintf("%s: reversed", n.Name), nil
}

// --- TabSplit ---------------------------------------------------------------

// tabSplit replaces a Tabular of Sequence{A,B,...} by a sequence of two
// Tabulars sharing the counter: (AB)^n becomes A^n B^n, turning a regular
// language into a context-free one (table II).
type tabSplit struct{}

func (tabSplit) Name() string { return "TabSplit" }

func (tabSplit) Applicable(g *graph.Graph, n *graph.Node) bool {
	if n.Kind != graph.Tabular || n.Boundary.Kind != graph.Counter {
		return false
	}
	return splittableItem(n.Child())
}

// splittableItem checks the repetition/tabular element is a plain
// sequence of at least two children with no cross-part references.
func splittableItem(item *graph.Node) bool {
	if item == nil || item.Kind != graph.Sequence || item.Comb != nil || item.Pair != nil {
		return false
	}
	if item.Boundary.Kind != graph.Delegated {
		return false
	}
	if len(item.Children) < 2 {
		return false
	}
	return !crossRefs(item.Children[0], item.Children[1:])
}

// crossRefs reports whether any node under rest references (length,
// counter or presence) an original name defined under first, or vice
// versa. After the split the halves parse in separate passes, so
// cross-part references cannot be resolved within one item.
func crossRefs(first *graph.Node, rest []*graph.Node) bool {
	names := func(n *graph.Node) map[string]bool {
		out := make(map[string]bool)
		var rec func(*graph.Node)
		rec = func(cur *graph.Node) {
			if cur.Origin.Name != "" {
				out[cur.Origin.Name] = true
			}
			for _, c := range cur.Children {
				rec(c)
			}
		}
		rec(n)
		return out
	}
	refs := func(ns []*graph.Node) map[string]bool {
		out := make(map[string]bool)
		var rec func(*graph.Node)
		rec = func(cur *graph.Node) {
			if cur.Boundary.Ref != "" {
				out[cur.Boundary.Ref] = true
			}
			if cur.Kind == graph.Optional {
				out[cur.Cond.Ref] = true
			}
			for _, c := range cur.Children {
				rec(c)
			}
		}
		for _, n := range ns {
			rec(n)
		}
		return out
	}
	firstNames := names(first)
	for ref := range refs(rest) {
		if firstNames[ref] {
			return true
		}
	}
	restNames := make(map[string]bool)
	for _, n := range rest {
		for k := range names(n) {
			restNames[k] = true
		}
	}
	for ref := range refs([]*graph.Node{first}) {
		if restNames[ref] {
			return true
		}
	}
	return false
}

// splitItem partitions an element sequence into (first child, rest),
// wrapping rest in a fresh sequence when it has several children.
func splitItem(g *graph.Graph, item *graph.Node) (first, rest *graph.Node) {
	first = item.Children[0]
	if len(item.Children) == 2 {
		rest = item.Children[1]
		return first, rest
	}
	rest = &graph.Node{
		Name:     g.FreshName(item.Name),
		Kind:     graph.Sequence,
		Boundary: graph.Boundary{Kind: graph.Delegated},
		Origin:   graph.Origin{Name: item.Origin.Name, Role: graph.RoleGroup},
		Children: item.Children[1:],
	}
	return first, rest
}

func (t tabSplit) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	item := n.Child()
	first, rest := splitItem(g, item)
	mkTab := func(role graph.Role, child *graph.Node) *graph.Node {
		return &graph.Node{
			Name:     g.FreshName(n.Name),
			Kind:     graph.Tabular,
			Boundary: n.Boundary, // same counter reference
			Origin:   graph.Origin{Name: n.Origin.Name, Role: role},
			Children: []*graph.Node{child},
		}
	}
	pair := &graph.Node{
		Name:     g.FreshName(n.Name),
		Kind:     graph.Sequence,
		Boundary: graph.Boundary{Kind: graph.Delegated},
		Origin:   n.Origin,
		Children: []*graph.Node{
			mkTab(graph.RoleSplitLeft, first),
			mkTab(graph.RoleSplitRight, rest),
		},
	}
	if err := g.Replace(n, pair); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s: (AB)^n -> A^n B^n on counter %s", n.Name, n.Boundary.Ref), nil
}

// --- RepSplit ---------------------------------------------------------------

// repSplit is TabSplit for Repetition nodes. Delimiter-terminated
// repetitions split into two delimiter-terminated repetitions; End- or
// Length-bounded repetitions with statically sized elements split into a
// pair whose item count is derived from the region size (the a^n b^n
// construction, table II).
type repSplit struct{}

func (repSplit) Name() string { return "RepSplit" }

func (repSplit) Applicable(g *graph.Graph, n *graph.Node) bool {
	if n.Kind != graph.Repetition {
		return false
	}
	if n.Parent != nil && n.Parent.Pair != nil {
		return false // already half of a pair
	}
	if !splittableItem(n.Child()) {
		return false
	}
	switch n.Boundary.Kind {
	case graph.Delimited:
		return true
	case graph.End, graph.Length:
		item := n.Child()
		if _, ok := graph.StaticSize(item.Children[0]); !ok {
			return false
		}
		rest := item.Children[1:]
		for _, c := range rest {
			if _, ok := graph.StaticSize(c); !ok {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (t repSplit) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	item := n.Child()
	first, rest := splitItem(g, item)
	if n.Boundary.Kind == graph.Delimited {
		mkRep := func(role graph.Role, child *graph.Node) *graph.Node {
			return &graph.Node{
				Name:     g.FreshName(n.Name),
				Kind:     graph.Repetition,
				Boundary: graph.Boundary{Kind: graph.Delimited, Delim: append([]byte(nil), n.Boundary.Delim...)},
				Origin:   graph.Origin{Name: n.Origin.Name, Role: role},
				Children: []*graph.Node{child},
			}
		}
		pair := &graph.Node{
			Name:     g.FreshName(n.Name),
			Kind:     graph.Sequence,
			Boundary: graph.Boundary{Kind: graph.Delegated},
			Origin:   n.Origin,
			Children: []*graph.Node{
				mkRep(graph.RoleSplitLeft, first),
				mkRep(graph.RoleSplitRight, rest),
			},
		}
		if err := g.Replace(n, pair); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s: (AB)*t -> A*t B*t", n.Name), nil
	}

	sizeA, _ := graph.StaticSize(first)
	sizeB, _ := graph.StaticSize(rest)
	mkRep := func(role graph.Role, child *graph.Node) *graph.Node {
		return &graph.Node{
			Name:     g.FreshName(n.Name),
			Kind:     graph.Repetition,
			Boundary: graph.Boundary{Kind: graph.Delegated},
			Origin:   graph.Origin{Name: n.Origin.Name, Role: role},
			Children: []*graph.Node{child},
		}
	}
	pair := &graph.Node{
		Name:     g.FreshName(n.Name),
		Kind:     graph.Sequence,
		Boundary: n.Boundary, // End or Length: provides the region extent
		Origin:   n.Origin,
		Pair:     &graph.RepPair{SizeA: sizeA, SizeB: sizeB},
		Children: []*graph.Node{
			mkRep(graph.RoleSplitLeft, first),
			mkRep(graph.RoleSplitRight, rest),
		},
	}
	if err := g.Replace(n, pair); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s: (AB)^n -> A^n B^n (sizes %d+%d)", n.Name, sizeA, sizeB), nil
}

// --- ChildMove ---------------------------------------------------------------

// childMove permutes two children of a Sequence, so that meaningful
// fields are no longer at the beginning of the message (classification
// challenge, table II). Reference-ordering soundness is enforced by the
// engine's global re-validation.
type childMove struct{}

func (childMove) Name() string { return "ChildMove" }

func (childMove) Applicable(_ *graph.Graph, n *graph.Node) bool {
	return n.Kind == graph.Sequence && len(n.Children) >= 2
}

func (t childMove) Apply(g *graph.Graph, n *graph.Node, r *rng.R) (string, error) {
	i := r.Intn(len(n.Children))
	j := r.Intn(len(n.Children) - 1)
	if j >= i {
		j++
	}
	if i > j {
		i, j = j, i
	}
	n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
	g.Rebuild()
	return fmt.Sprintf("%s: swap children %d and %d", n.Name, i, j), nil
}
