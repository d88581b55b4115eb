package graph

// StaticSize returns the byte size of the node's serialization when that
// size is the same for every compliant AST, and ok=false otherwise.
//
// It is used by transformations that must pre-compute the extent of a
// region before parsing it (ReadFromEnd, RepSplit).
func StaticSize(n *Node) (size int, ok bool) {
	switch n.Kind {
	case Terminal:
		if n.Boundary.Kind == Fixed {
			return n.Boundary.Size, true
		}
		return 0, false
	case Sequence:
		total := 0
		for _, c := range n.Children {
			s, sok := StaticSize(c)
			if !sok {
				return 0, false
			}
			total += s
		}
		if n.Boundary.Kind == Delimited {
			total += len(n.Boundary.Delim)
		}
		return total, true
	case Optional, Repetition, Tabular:
		// Presence / repetition count varies between ASTs.
		return 0, false
	default:
		return 0, false
	}
}

// ExtentComputable reports whether a parser can determine the byte extent
// of the node's region without parsing its content: either the size is
// static, the node is Length-bounded, or the node extends to the end of
// the enclosing region.
func ExtentComputable(n *Node) bool {
	if _, ok := StaticSize(n); ok {
		return true
	}
	switch n.Boundary.Kind {
	case Length, End:
		return true
	default:
		return false
	}
}

// Leaves returns the Terminal descendants of n (including n itself when it
// is a Terminal) in serialization order.
func Leaves(n *Node) []*Node {
	var out []*Node
	var rec func(*Node)
	rec = func(cur *Node) {
		if cur.IsLeaf() {
			out = append(out, cur)
			return
		}
		for _, c := range cur.Children {
			rec(c)
		}
	}
	rec(n)
	return out
}

// Ancestors returns the chain of ancestors of n from parent to root.
func Ancestors(n *Node) []*Node {
	var out []*Node
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		out = append(out, cur)
	}
	return out
}

// InsideDelimitedRegion reports whether any ancestor of n determines its
// extent with a delimiter scan (Delimited boundary), which makes
// byte-reversal of n unsafe.
func InsideDelimitedRegion(n *Node) bool {
	for _, a := range Ancestors(n) {
		if a.Boundary.Kind == Delimited {
			return true
		}
	}
	return false
}
