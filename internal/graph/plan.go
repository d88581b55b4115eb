package graph

// Plan is the access plan of one graph: every Length, Counter and
// Optional reference resolved to the scope that holds its carrier, and
// every split node's two halves, found once rather than searched for in
// each message. The message path (msgtree, wire) reads it through the
// indices the derivation leaves in the nodes, so a lookup is one slice
// index and no map.
type Plan struct {
	refs   []Ref
	halves [][2]*Node
	height int
}

// Ref is a resolved reference. Depth is the graph depth (the root is 0)
// of the innermost scope enclosing the dependent node whose subtree
// holds the carrier; Target is the carrier. An instance tree has its
// graph's depths, so a message resolves the reference by following
// Target's path down from the instance of its dependent's ancestor at
// Depth. Target is nil when no enclosing scope holds a carrier.
type Ref struct {
	Depth  int
	Target *Node
}

// Plan returns the graph's access plan, deriving it on the first call.
// A graph that serves no message never derives one, and compiling or
// loading a graph does not either. Rebuild, which every structural edit
// ends with, drops the plan and the indices it left in the nodes; Clone
// does not copy it. The derivation writes only the nodes that have a
// reference or halves: it runs on a dialect's first message, when the
// rest of a node's cache lines are cold.
func (g *Graph) Plan() *Plan {
	if p := g.plan.Load(); p != nil {
		return p
	}
	g.planMu.Lock()
	defer g.planMu.Unlock()
	if p := g.plan.Load(); p != nil {
		return p
	}
	// Derive into scratch, then keep exact-size copies: every dialect a
	// process serves keeps its plan.
	b := planBuilder{refs: make([]Ref, 0, 64), halves: make([][2]*Node, 0, 32)}
	b.derive(g.Root, 0)
	p := &Plan{
		refs:   append([]Ref(nil), b.refs...),
		halves: append([][2]*Node(nil), b.halves...),
		height: b.height,
	}
	g.plan.Store(p)
	return p
}

// planBuilder collects a plan during its derivation.
type planBuilder struct {
	refs   []Ref
	halves [][2]*Node
	height int
}

// derive fills the plan for n's subtree, n at graph depth depth. It
// returns the left and right split halves n offers to a FindRoleHolder
// search of its parent, so each node's halves come from its children's
// results and the whole derivation is one pass.
func (p *planBuilder) derive(n *Node, depth int) (left, right *Node) {
	if len(n.Children) > 0 && depth >= p.height {
		p.height = depth + 1
	}
	if name := refName(n); name != "" {
		p.refs = append(p.refs, resolve(n, name, depth))
		n.ref = int32(len(p.refs))
	}
	var l, r *Node // FindRoleHolder(n, RoleSplitLeft), (n, RoleSplitRight)
	for _, c := range n.Children {
		cl, cr := p.derive(c, depth+1)
		if l == nil {
			l = cl
		}
		if r == nil {
			r = cr
		}
	}
	if n.Comb != nil || n.isSplitPair(l, r) {
		p.halves = append(p.halves, [2]*Node{l, r})
		n.halves = int32(len(p.halves))
	}
	switch {
	case n.Origin.Role == RoleSplitLeft:
		return n, nil
	case n.Origin.Role == RoleSplitRight:
		return nil, n
	case n.Comb != nil || n.Kind == Repetition || n.Kind == Tabular:
		return nil, nil // sealed, as FindRoleHolder treats them
	}
	return l, r
}

// refName returns the original field name n refers to: the guard of an
// Optional, the Boundary reference of anything else ("" for none).
func refName(n *Node) string {
	if n.Kind == Optional {
		return n.Cond.Ref
	}
	return n.Boundary.Ref
}

// resolve climbs the scopes enclosing n, at graph depth depth, from
// innermost to outermost. The first whose subtree holds the carrier of
// name resolves the reference. Neither the climb nor the carrier
// search enters Repetition/Tabular items, so a reference inside an
// item resolves within that item or in scopes enclosing the whole
// repetition, never in sibling items.
func resolve(n *Node, name string, depth int) Ref {
	var below *Node // the child of cur the climb came from
	for cur, d := n.Parent, depth-1; cur != nil; below, cur, d = cur, cur.Parent, d-1 {
		if t := carrier(cur, name, true, below); t != nil {
			return Ref{Depth: d, Target: t}
		}
	}
	return Ref{Depth: -1}
}

// Ref returns how n's reference resolves (see Ref). The result has a
// nil Target when n has none.
func (p *Plan) Ref(n *Node) Ref {
	if n.ref == 0 {
		return Ref{Depth: -1}
	}
	return p.refs[n.ref-1]
}

// Height returns the most containers any node of the graph has as
// ancestors (the root included): the capacity of a walker's stack of
// open instances.
func (p *Plan) Height() int { return p.height }

// Halves returns the nodes holding the left and right halves of a split
// value (a Comb node) or of a TabSplit/RepSplit pair, as FindRoleHolder
// finds them; both are nil for any other node. A Sequence without Comb
// has halves exactly when IsSplitPair reports it.
func (p *Plan) Halves(n *Node) (l, r *Node) {
	if n.halves == 0 {
		return nil, nil
	}
	h := p.halves[n.halves-1]
	return h[0], h[1]
}

// Carrier returns the node of n's subtree (n included) that carries the
// value of the original field name, without entering Repetition/Tabular
// items: the scope-local form of FindOriginal.
func Carrier(n *Node, name string) *Node { return carrier(n, name, false, nil) }

// carrier returns the node of n's subtree (n included) that carries the
// original name: its RoleWhole node or, when refs is set, also a
// synthetic RoleLengthOf field. This is the carrier Validate checks
// references against. The walk does not enter Repetition/Tabular items,
// and it stops at n's child stop: a reference target parses before its
// dependent (Validate), so it is never in or after the child that
// encloses the dependent.
func carrier(n *Node, name string, refs bool, stop *Node) *Node {
	if n.Origin.Name == name && (n.Origin.Role == RoleWhole || refs && n.Origin.Role == RoleLengthOf) {
		return n
	}
	if n.Kind == Repetition || n.Kind == Tabular {
		return nil
	}
	for _, c := range n.Children {
		if c == stop {
			break
		}
		if t := carrier(c, name, refs, nil); t != nil {
			return t
		}
	}
	return nil
}
