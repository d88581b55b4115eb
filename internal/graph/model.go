// Package graph defines the message format graph of ProtoObf
// (Duchêne et al., "Specification-based Protocol Obfuscation", DSN 2018).
//
// A message format graph describes every abstract syntax tree (AST) that is
// compliant with a protocol message-format specification. A node of the
// graph describes a node of the corresponding ASTs. Nodes are typed
// (Terminal, Sequence, Optional, Repetition, Tabular) and carry a boundary
// method (Fixed, Delimited, Length, Counter, End, Delegated) that defines
// how the extent of the corresponding field is determined on the wire.
//
// Obfuscating transformations (package internal/transform) rewrite this
// graph; provenance annotations (Origin, Combine, Ops) let accessors keep
// exposing the original, non-obfuscated field names while the wire format
// is transformed.
package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is the type of a message format graph node (paper §V-A).
type Kind int

const (
	// Terminal nodes carry user data or message-related information
	// (e.g. the size of another node).
	Terminal Kind = iota + 1
	// Sequence nodes contain an ordered sequence of sub-nodes.
	Sequence
	// Optional nodes are present or absent depending on the value of
	// another node in the AST.
	Optional
	// Repetition nodes consist of a repetition of the same sub-node; the
	// number of repetitions is determined by the node's boundary
	// (a terminating delimiter or the end of the enclosing region).
	Repetition
	// Tabular nodes consist of a repetition of the same sub-node whose
	// count is given by another node (the Counter boundary reference).
	Tabular
)

// String implements fmt.Stringer using the paper's notation.
func (k Kind) String() string {
	switch k {
	case Terminal:
		return "Te"
	case Sequence:
		return "S"
	case Optional:
		return "O"
	case Repetition:
		return "R"
	case Tabular:
		return "Ta"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// BoundaryKind is the method used to define the length of a field (§V-A).
type BoundaryKind int

const (
	// Fixed size, defined in the specification.
	Fixed BoundaryKind = iota + 1
	// Delimited fields end with a predefined byte sequence
	// (for instance "\r\n" in HTTP).
	Delimited
	// Length fields have their length defined by another node.
	Length
	// Counter applies to Tabular nodes: the number of repetitions of the
	// sub-node is defined by another node.
	Counter
	// End fields correspond to the remaining of the enclosing region.
	End
	// Delegated means the length of the field is the sum of the lengths
	// of its sub-nodes.
	Delegated
)

// String implements fmt.Stringer using the paper's notation.
func (b BoundaryKind) String() string {
	switch b {
	case Fixed:
		return "F"
	case Delimited:
		return "De"
	case Length:
		return "L"
	case Counter:
		return "C"
	case End:
		return "E"
	case Delegated:
		return "Dgt"
	default:
		return fmt.Sprintf("BoundaryKind(%d)", int(b))
	}
}

// Boundary describes how the extent of a node is determined on the wire.
type Boundary struct {
	Kind BoundaryKind
	// Size is the byte size for Fixed boundaries.
	Size int
	// Delim is the terminating byte sequence for Delimited boundaries.
	// For Repetition nodes it is the terminator of the whole repetition;
	// for Terminal and Sequence nodes it follows the node's content.
	Delim []byte
	// Ref names the node holding the length (Length) or the repetition
	// count (Counter). The referenced node must be an auto-filled
	// unsigned integer Terminal parsed before any dependent node.
	Ref string
}

func (b Boundary) String() string {
	switch b.Kind {
	case Fixed:
		return fmt.Sprintf("F(%d)", b.Size)
	case Delimited:
		return fmt.Sprintf("De(%q)", string(b.Delim))
	case Length:
		return fmt.Sprintf("L(%s)", b.Ref)
	case Counter:
		return fmt.Sprintf("C(%s)", b.Ref)
	default:
		return b.Kind.String()
	}
}

// Enc is the value encoding of a Terminal node.
type Enc int

const (
	// EncBytes terminals hold raw bytes.
	EncBytes Enc = iota + 1
	// EncUint terminals hold a big-endian unsigned integer whose width is
	// the Fixed size of the node (1, 2, 4 or 8 bytes).
	EncUint
	// EncASCII terminals hold an unsigned integer encoded as a decimal
	// ASCII string (e.g. HTTP Content-Length).
	EncASCII
)

func (e Enc) String() string {
	switch e {
	case EncBytes:
		return "bytes"
	case EncUint:
		return "uint"
	case EncASCII:
		return "ascii"
	default:
		return fmt.Sprintf("Enc(%d)", int(e))
	}
}

// CondOp is the comparison operator of an Optional node's presence predicate.
type CondOp int

const (
	// CondEq: the optional sub-tree is present iff the referenced node's
	// value equals the predicate value.
	CondEq CondOp = iota + 1
	// CondNe: present iff the referenced value differs.
	CondNe
)

// Cond is the presence predicate of an Optional node: the node is present
// in the AST depending on the value of another node (paper §V-A).
type Cond struct {
	Ref string // name of the original node whose value is tested
	Op  CondOp
	// UintVal is compared for EncUint/EncASCII references, BytesVal for
	// EncBytes references.
	UintVal  uint64
	BytesVal []byte
	IsBytes  bool
}

func (c Cond) String() string {
	op := "=="
	if c.Op == CondNe {
		op = "!="
	}
	if c.IsBytes {
		return fmt.Sprintf("%s %s %q", c.Ref, op, string(c.BytesVal))
	}
	return fmt.Sprintf("%s %s %d", c.Ref, op, c.UintVal)
}

// Role records how an obfuscated node relates to the original node it
// derives from. It is the provenance side of a transformation.
type Role int

const (
	// RoleWhole: the node carries the (possibly transformed) value of the
	// original node named by Origin.Name.
	RoleWhole Role = iota + 1
	// RoleSplitLeft / RoleSplitRight: the node carries one half of a
	// Split* transformation; the parent Sequence carries the Combine
	// recipe and the RoleWhole provenance.
	RoleSplitLeft
	RoleSplitRight
	// RoleLengthOf: a synthetic length field introduced by
	// BoundaryChange; auto-filled at serialization time.
	RoleLengthOf
	// RolePad: a synthetic padding field introduced by PadInsert; the
	// value is random and ignored by the parser.
	RolePad
	// RoleGroup: a synthetic structural grouping (e.g. the Sequence
	// wrapping a BoundaryChange pair or a TabSplit pair).
	RoleGroup
)

func (r Role) String() string {
	switch r {
	case RoleWhole:
		return "whole"
	case RoleSplitLeft:
		return "split-left"
	case RoleSplitRight:
		return "split-right"
	case RoleLengthOf:
		return "length-of"
	case RolePad:
		return "pad"
	case RoleGroup:
		return "group"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Origin is the provenance annotation of a node: which original
// (pre-obfuscation) node it derives from, and in which role.
type Origin struct {
	// Name of the original node. Empty for purely synthetic nodes (pads).
	Name string
	Role Role
}

// OpKind is an invertible value operation applied to a terminal value
// (aggregation transformations of the paper: ConstAdd, ConstSub, ConstXor).
type OpKind int

const (
	// OpAdd adds K modulo 2^(8*width) (EncUint/EncASCII).
	OpAdd OpKind = iota + 1
	// OpSub subtracts K modulo 2^(8*width).
	OpSub
	// OpXor xors with K.
	OpXor
	// OpByteAdd adds the cycled key KB byte-wise modulo 256 (EncBytes).
	OpByteAdd
	// OpByteXor xors with the cycled key KB byte-wise (EncBytes).
	OpByteXor
)

func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpXor:
		return "xor"
	case OpByteAdd:
		return "byteadd"
	case OpByteXor:
		return "bytexor"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// ValueOp is one step of the encode-direction value pipeline of a node.
// Setters apply Ops in order; getters and the parser invert them in
// reverse order.
type ValueOp struct {
	Kind OpKind
	K    uint64 // constant for OpAdd/OpSub/OpXor
	KB   []byte // key for OpByteAdd/OpByteXor
}

func (o ValueOp) String() string {
	if len(o.KB) > 0 {
		return fmt.Sprintf("%s(%x)", o.Kind, o.KB)
	}
	return fmt.Sprintf("%s(%d)", o.Kind, o.K)
}

// CombineKind tells how the two halves of a Split* transformation
// recombine into the original value.
type CombineKind int

const (
	// CombAdd: v = left + right (mod 2^(8*width)).
	CombAdd CombineKind = iota + 1
	// CombSub: v = left - right (mod 2^(8*width)).
	CombSub
	// CombXor: v = left ^ right.
	CombXor
	// CombCat: v = concat(left, right) at the byte level.
	CombCat
)

func (c CombineKind) String() string {
	switch c {
	case CombAdd:
		return "add"
	case CombSub:
		return "sub"
	case CombXor:
		return "xor"
	case CombCat:
		return "cat"
	default:
		return fmt.Sprintf("CombineKind(%d)", int(c))
	}
}

// Combine is carried by the Sequence node that replaces a split Terminal.
type Combine struct {
	Kind CombineKind
	// Width is the byte width of the original integer value
	// (CombAdd/CombSub/CombXor).
	Width int
	// SplitAt is the byte offset of the cut (CombCat).
	SplitAt int
}

// RepPair is carried by the Sequence produced by RepSplit: the original
// Repetition of Sequence{A,B} became A^n B^n, with n derived from the
// enclosing region size and the static element sizes.
type RepPair struct {
	SizeA int // static byte size of one A element
	SizeB int // static byte size of one B element
}

// Node is a node of the message format graph. A node is defined by a name,
// a type, a list of sub-nodes, a parent and a boundary method (§V-A),
// plus the obfuscation annotations maintained by package transform.
type Node struct {
	Name     string
	Kind     Kind
	Boundary Boundary
	// Enc is the value encoding (Terminal only).
	Enc Enc
	// MinLen is the minimum byte length the application guarantees for
	// the values of a variable-length Terminal. Transformations that cut
	// a prefix (SplitCat) only apply when MinLen permits.
	MinLen int
	// Cond is the presence predicate (Optional only).
	Cond Cond
	// Children: Sequence has 1..n, Optional/Repetition/Tabular exactly 1,
	// Terminal none.
	Children []*Node
	Parent   *Node

	// Obfuscation annotations.

	// Origin records provenance; for nodes of the original graph it is
	// {Name: Name, Role: RoleWhole}.
	Origin Origin
	// Ops is the encode-direction value pipeline (ConstAdd/Sub/Xor...).
	Ops []ValueOp
	// Comb, when non-nil, marks a Sequence that recombines into one
	// original terminal value (Split* transformations).
	Comb *Combine
	// Reversed marks a node serialized right-to-left (ReadFromEnd).
	Reversed bool
	// Pair, when non-nil, marks a RepSplit pair Sequence.
	Pair *RepPair
	// AutoFill marks Terminals whose value is computed by the serializer
	// (Length/Counter targets and synthetic RoleLengthOf fields).
	AutoFill bool

	// pos is the node's parse-order position and lastLeaf the position
	// of the last Terminal of its subtree (-1 when it has none), as of
	// the latest Validate. They sit in the struct's padding, so
	// Validate indexes a graph without a per-node allocation.
	pos, lastLeaf int32
}

// IsLeaf reports whether the node is a Terminal.
func (n *Node) IsLeaf() bool { return n.Kind == Terminal }

// ValueBearing reports whether n carries a terminal value that value
// transformations may target and accessors read: an original terminal,
// a combine sequence from an earlier split, a synthetic length field, or
// one half of a split (splits and constant operations stack recursively:
// the getters invert them from the inside out).
func (n *Node) ValueBearing() bool {
	if n.Kind != Terminal && n.Comb == nil {
		return false
	}
	switch n.Origin.Role {
	case RoleWhole, RoleLengthOf, RoleSplitLeft, RoleSplitRight:
		return true
	default:
		return false
	}
}

// OpWidth returns the modulus width, in bytes, of integer value
// operations on n.
func (n *Node) OpWidth() int {
	switch {
	case n.Comb != nil:
		return n.Comb.Width
	case n.Enc == EncUint:
		return n.Boundary.Size
	default:
		return 8 // EncASCII: full 64-bit arithmetic
	}
}

// FindRoleHolder returns the shallowest descendant of n (n excluded)
// whose Origin.Role is role. The search stops at matches and never enters
// the items of Repetition/Tabular containers, so it sees through
// RoleGroup wrappers (e.g. BoundaryChange) without crossing into nested
// splits or items.
func FindRoleHolder(n *Node, role Role) *Node {
	var rec func(cur *Node) *Node
	rec = func(cur *Node) *Node {
		if cur.Origin.Role == role {
			return cur
		}
		// Sealed sub-units: a node bearing the opposite split role, and
		// any combine sequence (its children are the halves of a
		// different, nested split).
		if cur.Origin.Role == RoleSplitLeft || cur.Origin.Role == RoleSplitRight || cur.Comb != nil {
			return nil
		}
		if cur.Kind == Repetition || cur.Kind == Tabular {
			return nil
		}
		for _, c := range cur.Children {
			if hit := rec(c); hit != nil {
				return hit
			}
		}
		return nil
	}
	for _, c := range n.Children {
		if hit := rec(c); hit != nil {
			return hit
		}
	}
	return nil
}

// IsSplitPair reports whether n is the pair Sequence introduced by
// TabSplit or RepSplit: two repeated containers deriving from the same
// original node with split roles, possibly wrapped by later group
// transformations. Accessors pair their items by index.
func (n *Node) IsSplitPair() bool {
	if n.Kind != Sequence || n.Comb != nil {
		return false
	}
	if n.Pair != nil {
		return true
	}
	// Only the pair Sequence itself (RoleWhole) qualifies — RoleGroup
	// wrappers around a pair must stay transparent.
	if n.Origin.Role != RoleWhole {
		return false
	}
	l := FindRoleHolder(n, RoleSplitLeft)
	r := FindRoleHolder(n, RoleSplitRight)
	container := func(c *Node) bool {
		return c != nil && (c.Kind == Tabular || c.Kind == Repetition)
	}
	return container(l) && container(r) &&
		l.Origin.Name == n.Origin.Name && r.Origin.Name == n.Origin.Name
}

// Child returns the single child of Optional/Repetition/Tabular nodes.
func (n *Node) Child() *Node {
	if len(n.Children) != 1 {
		return nil
	}
	return n.Children[0]
}

// Path returns the slash-separated path of node names from the root.
func (n *Node) Path() string {
	var parts []string
	for cur := n; cur != nil; cur = cur.Parent {
		parts = append(parts, cur.Name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// Graph is a message format graph: a tree of Nodes with name references
// (Length, Counter, Optional predicates) across the tree.
type Graph struct {
	// ProtocolName is the name declared in the specification.
	ProtocolName string
	Root         *Node

	// nextID provides fresh unique suffixes for synthetic node names.
	nextID int
}

// New creates a graph with the given root. Origin annotations are
// initialized so that every node is its own provenance.
func New(protocol string, root *Node) *Graph {
	g := &Graph{ProtocolName: protocol, Root: root}
	g.Walk(func(n *Node) bool {
		if n.Origin == (Origin{}) {
			n.Origin = Origin{Name: n.Name, Role: RoleWhole}
		}
		return true
	})
	g.Rebuild()
	return g
}

// Walk visits nodes depth-first, parents before children, in child order.
// The visit function returns false to prune the subtree.
func (g *Graph) Walk(visit func(*Node) bool) { walk(g.Root, visit) }

func walk(n *Node, visit func(*Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, c := range n.Children {
		walk(c, visit)
	}
}

// Nodes returns all nodes in depth-first order.
func (g *Graph) Nodes() []*Node {
	var out []*Node
	g.Walk(func(n *Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// NodeCount returns the number of nodes in the graph.
func (g *Graph) NodeCount() int {
	count := 0
	g.Walk(func(*Node) bool { count++; return true })
	return count
}

// Find returns the node with the given name, or nil.
func (g *Graph) Find(name string) *Node { return find(g.Root, name) }

func find(n *Node, name string) *Node {
	if n == nil || n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := find(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

// FindOriginal returns the node carrying the value of the original node
// named name: the unique node with Origin{Name: name, Role: RoleWhole}.
// After Split* transformations this is the Combine sequence. Synthetic
// length fields introduced by BoundaryChange (RoleLengthOf, named after
// themselves) resolve the same way so that boundary references work.
func (g *Graph) FindOriginal(name string) *Node {
	var found *Node
	g.Walk(func(n *Node) bool {
		if n.Origin.Name == name && (n.Origin.Role == RoleWhole || n.Origin.Role == RoleLengthOf) {
			found = n
			return false
		}
		return found == nil
	})
	return found
}

// Rebuild restores parent pointers after structural edits.
func (g *Graph) Rebuild() {
	if g.Root != nil {
		g.Root.Parent = nil
		adopt(g.Root)
	}
}

func adopt(n *Node) {
	for _, c := range n.Children {
		c.Parent = n
		adopt(c)
	}
}

// FreshName returns a unique node name derived from base.
func (g *Graph) FreshName(base string) string {
	for {
		g.nextID++
		name := base + "$" + strconv.Itoa(g.nextID)
		if g.Find(name) == nil {
			return name
		}
	}
}

// Replace substitutes old with repl in old's parent (or as root).
// Parent pointers are rebuilt.
func (g *Graph) Replace(old, repl *Node) error {
	if old == g.Root {
		g.Root = repl
		g.Rebuild()
		return nil
	}
	p := old.Parent
	if p == nil {
		return fmt.Errorf("graph: node %q has no parent and is not root", old.Name)
	}
	for i, c := range p.Children {
		if c == old {
			p.Children[i] = repl
			g.Rebuild()
			return nil
		}
	}
	return fmt.Errorf("graph: node %q not found among children of %q", old.Name, p.Name)
}

// Checkpoint is a restore point for one rewrite at a node. It is a
// plain value: taking one allocates only the copy of the node's
// children.
type Checkpoint struct {
	g      *Graph
	n      *Node
	fields Node    // n's fields
	kids   []*Node // the elements of n.Children
	parent *Node   // n's parent, nil when n is the root
	slot   int     // n's index in parent.Children
	root   *Node
	nextID int
}

// Checkpoint records everything a rewrite at n may change: n's fields,
// the elements of n.Children (which a rewrite may permute in place),
// n's slot in its parent, the root and the fresh-name counter. The
// parent pointers must be current, as Validate and Rebuild leave them.
// Restore is exact only if nothing outside that set changed since.
func (g *Graph) Checkpoint(n *Node) Checkpoint {
	c := Checkpoint{g: g, n: n, fields: *n, root: g.Root, nextID: g.nextID}
	if len(n.Children) > 0 {
		c.kids = append([]*Node(nil), n.Children...)
	}
	if p := n.Parent; p != nil {
		for i, sib := range p.Children {
			if sib == n {
				c.parent, c.slot = p, i
				break
			}
		}
	}
	return c
}

// Restore puts back the state recorded by Checkpoint and rebuilds the
// parent pointers.
func (c *Checkpoint) Restore() {
	*c.n = c.fields
	copy(c.n.Children, c.kids)
	if c.parent != nil {
		c.parent.Children[c.slot] = c.n
	}
	c.g.Root = c.root
	c.g.nextID = c.nextID
	c.g.Rebuild()
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{ProtocolName: g.ProtocolName, nextID: g.nextID}
	ng.Root = cloneNode(g.Root)
	ng.Rebuild()
	return ng
}

func cloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{
		Name:     n.Name,
		Kind:     n.Kind,
		Boundary: n.Boundary,
		Enc:      n.Enc,
		MinLen:   n.MinLen,
		Cond:     n.Cond,
		Origin:   n.Origin,
		Reversed: n.Reversed,
		AutoFill: n.AutoFill,
	}
	c.Boundary.Delim = append([]byte(nil), n.Boundary.Delim...)
	c.Cond.BytesVal = append([]byte(nil), n.Cond.BytesVal...)
	if len(n.Ops) > 0 {
		c.Ops = make([]ValueOp, len(n.Ops))
		for i, op := range n.Ops {
			c.Ops[i] = op
			c.Ops[i].KB = append([]byte(nil), op.KB...)
		}
	}
	if n.Comb != nil {
		comb := *n.Comb
		c.Comb = &comb
	}
	if n.Pair != nil {
		pair := *n.Pair
		c.Pair = &pair
	}
	for _, ch := range n.Children {
		c.Children = append(c.Children, cloneNode(ch))
	}
	return c
}
