package wire

import (
	"bytes"
	"fmt"
	"slices"

	"protoobf/internal/graph"
	"protoobf/internal/msgtree"
	"protoobf/internal/rng"
)

// ParseError reports where and why parsing failed.
type ParseError struct {
	Node   string
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("parse: node %q at offset %d: %s", e.Node, e.Offset, e.Msg)
}

func perr(n *graph.Node, pos int, format string, args ...any) error {
	return &ParseError{Node: n.Name, Offset: pos, Msg: fmt.Sprintf(format, args...)}
}

// Parse rebuilds a message AST from obfuscated wire bytes. The graph must
// be the same (transformed) graph that serialized the message. The rng is
// only used if the resulting message is modified and re-serialized.
func Parse(g *graph.Graph, data []byte, r *rng.R) (*msgtree.Message, error) {
	root := &msgtree.Value{}
	plan := g.Plan()
	p := &parser{m: msgtree.Parsed(g, r, root), plan: plan, open: make([]*msgtree.Value, 0, plan.Height())}
	pos, err := p.nodeAt(root, g.Root, data, 0, len(data))
	if err != nil {
		return nil, err
	}
	if pos != len(data) {
		return nil, perr(g.Root, pos, "%d trailing bytes", len(data)-pos)
	}
	return p.m, nil
}

type parser struct {
	m    *msgtree.Message
	plan *graph.Plan
	// open holds the instances of the ancestors of the node being
	// parsed, root first; references resolve against it.
	open []*msgtree.Value
	// private is set inside a reversed region, whose bytes the parser
	// has copied into scratch of its own.
	private bool
}

// enter and leave bracket the parse of a container's children.
func (p *parser) enter(v *msgtree.Value) { p.open = append(p.open, v) }
func (p *parser) leave()                 { p.open = p.open[:len(p.open)-1] }

// ref resolves the value of the field n's reference names from the
// partially built instance tree.
func (p *parser) ref(n *graph.Node, name string, pos int) (graph.Val, error) {
	target := msgtree.Ref(p.plan, p.open, n)
	if target == nil {
		return graph.Val{}, perr(n, pos, "reference %q not parsed yet", name)
	}
	v, err := p.m.GetNodeValue(target)
	if err != nil {
		return graph.Val{}, perr(n, pos, "reference %q: %v", name, err)
	}
	return v, nil
}

// evalRef resolves the integer value of n's Length or Counter reference.
func (p *parser) evalRef(n *graph.Node, pos int) (uint64, error) {
	v, err := p.ref(n, n.Boundary.Ref, pos)
	if err != nil {
		return 0, err
	}
	if v.IsBytes {
		return 0, perr(n, pos, "reference %q holds bytes", n.Boundary.Ref)
	}
	return v.U, nil
}

// extent computes the byte extent of a node whose region must be known
// before parsing its content (Reversed subtrees, RepSplit pairs).
func (p *parser) extent(n *graph.Node, data []byte, pos, end int) (int, error) {
	if sz, ok := graph.StaticSize(n); ok {
		return sz, nil
	}
	switch n.Boundary.Kind {
	case graph.Length:
		l, err := p.evalRef(n, pos)
		if err != nil {
			return 0, err
		}
		if l > uint64(end-pos) {
			return 0, perr(n, pos, "length %d exceeds remaining %d bytes", l, end-pos)
		}
		return int(l), nil
	case graph.End:
		return end - pos, nil
	default:
		return 0, perr(n, pos, "no computable extent for boundary %v", n.Boundary)
	}
}

// nodeAt parses one graph node from data[pos:end] into the slot v and
// returns the new cursor. p.open holds v's ancestors.
func (p *parser) nodeAt(v *msgtree.Value, n *graph.Node, data []byte, pos, end int) (int, error) {
	if n.Reversed {
		ext, err := p.extent(n, data, pos, end)
		if err != nil {
			return 0, err
		}
		if pos+ext > end {
			return 0, perr(n, pos, "reversed region of %d bytes exceeds remaining %d", ext, end-pos)
		}
		var scratch []byte
		if p.private {
			// Inside a reversed region the bytes are already the
			// parser's own, and only this node reads this range of
			// them, so it is reversed in place.
			scratch = data[pos : pos+ext]
			slices.Reverse(scratch)
		} else {
			scratch = make([]byte, ext)
			for i := 0; i < ext; i++ {
				scratch[i] = data[pos+ext-1-i]
			}
		}
		private := p.private
		p.private = true
		sub, err := p.nodeInner(v, n, scratch, 0, ext)
		p.private = private
		if err != nil {
			return 0, err
		}
		if sub != ext {
			return 0, perr(n, pos, "reversed region consumed %d of %d bytes", sub, ext)
		}
		return pos + ext, nil
	}
	return p.nodeInner(v, n, data, pos, end)
}

func (p *parser) nodeInner(v *msgtree.Value, n *graph.Node, data []byte, pos, end int) (int, error) {
	*v = msgtree.Value{Node: n}
	if n.Kind == graph.Terminal {
		return p.terminal(n, v, data, pos, end)
	}
	// A container's own reference resolves in a scope strictly above
	// it, so opening its scope first does not disturb that lookup.
	p.enter(v)
	var err error
	switch n.Kind {
	case graph.Sequence:
		pos, err = p.sequence(n, v, data, pos, end)
	case graph.Optional:
		pos, err = p.optional(n, v, data, pos, end)
	case graph.Repetition:
		pos, err = p.repetition(n, v, data, pos, end)
	case graph.Tabular:
		pos, err = p.tabular(n, v, data, pos, end)
	default:
		err = perr(n, pos, "unknown node kind %v", n.Kind)
	}
	p.leave()
	if err != nil {
		return 0, err
	}
	return pos, nil
}

func (p *parser) terminal(n *graph.Node, v *msgtree.Value, data []byte, pos, end int) (int, error) {
	var content []byte
	switch n.Boundary.Kind {
	case graph.Fixed:
		if pos+n.Boundary.Size > end {
			return 0, perr(n, pos, "need %d bytes, %d remain", n.Boundary.Size, end-pos)
		}
		content = data[pos : pos+n.Boundary.Size]
		pos += n.Boundary.Size
	case graph.Delimited:
		idx := bytes.Index(data[pos:end], n.Boundary.Delim)
		if idx < 0 {
			return 0, perr(n, pos, "delimiter %q not found", n.Boundary.Delim)
		}
		content = data[pos : pos+idx]
		pos += idx + len(n.Boundary.Delim)
	case graph.Length:
		l, err := p.evalRef(n, pos)
		if err != nil {
			return 0, err
		}
		if l > uint64(end-pos) {
			return 0, perr(n, pos, "length %d exceeds remaining %d bytes", l, end-pos)
		}
		content = data[pos : pos+int(l)]
		pos += int(l)
	case graph.End:
		content = data[pos:end]
		pos = end
	default:
		return 0, perr(n, pos, "terminal with boundary %v", n.Boundary)
	}
	if n.MinLen > 0 && len(content) < n.MinLen {
		return 0, perr(n, pos, "%d bytes below declared minimum %d", len(content), n.MinLen)
	}
	if p.private {
		// A reversed region's scratch is the parser's own; a region
		// nested in it reverses only bytes not parsed yet, so these are
		// never written again. The cap keeps an append to this field off
		// its neighbour.
		v.SetWire(content[:len(content):len(content)])
	} else {
		v.SetWire(append([]byte(nil), content...))
	}
	return pos, nil
}

func (p *parser) sequence(n *graph.Node, v *msgtree.Value, data []byte, pos, end int) (int, error) {
	if n.Pair != nil {
		return p.repSplitPair(n, v, data, pos, end)
	}
	subEnd := end
	enforce := false
	switch n.Boundary.Kind {
	case graph.Length:
		l, err := p.evalRef(n, pos)
		if err != nil {
			return 0, err
		}
		if l > uint64(end-pos) {
			return 0, perr(n, pos, "length %d exceeds remaining %d bytes", l, end-pos)
		}
		subEnd = pos + int(l)
		enforce = true
	case graph.End:
		enforce = true
	}
	// Kids grows as children parse, so references resolve only against
	// siblings already parsed; the slab's capacity keeps it in place.
	kids := msgtree.Slab(len(n.Children))
	v.Kids = kids[:0]
	for i, c := range n.Children {
		next, err := p.nodeAt(kids[i], c, data, pos, subEnd)
		if err != nil {
			return 0, err
		}
		v.Kids = append(v.Kids, kids[i])
		pos = next
	}
	if enforce && pos != subEnd {
		return 0, perr(n, pos, "region has %d unconsumed bytes", subEnd-pos)
	}
	if n.Boundary.Kind == graph.Delimited {
		if !bytes.HasPrefix(data[pos:end], n.Boundary.Delim) {
			return 0, perr(n, pos, "expected delimiter %q", n.Boundary.Delim)
		}
		pos += len(n.Boundary.Delim)
	}
	return pos, nil
}

// repSplitPair parses A^n B^n: the item count is derived from the region
// size and the static element sizes (the context-free language the
// TabSplit/RepSplit transformations introduce, paper table II).
func (p *parser) repSplitPair(n *graph.Node, v *msgtree.Value, data []byte, pos, end int) (int, error) {
	ext, err := p.extent(n, data, pos, end)
	if err != nil {
		return 0, err
	}
	// Element sizes are derived positionally from the halves themselves,
	// so that ChildMove may legally swap the two halves of the pair.
	sizes := make([]int, len(n.Children))
	per := 0
	for i, half := range n.Children {
		sz, ok := graph.StaticSize(half.Child())
		if !ok {
			return 0, perr(n, pos, "pair half %q has no static element size", half.Name)
		}
		sizes[i] = sz
		per += sz
	}
	if per <= 0 {
		return 0, perr(n, pos, "pair with zero element size")
	}
	if ext%per != 0 {
		return 0, perr(n, pos, "region of %d bytes is not a multiple of element size %d", ext, per)
	}
	count := ext / per
	halves := msgtree.Slab(len(n.Children))
	v.Kids = halves[:0]
	for i, half := range n.Children {
		hv := halves[i]
		*hv = msgtree.Value{Node: half}
		items := msgtree.Slab(count)
		hv.Kids = items[:0]
		p.enter(hv)
		for j, item := range items {
			next, err := p.nodeAt(item, half.Child(), data, pos, pos+sizes[i])
			if err != nil {
				return 0, err
			}
			if next != pos+sizes[i] {
				return 0, perr(n, pos, "pair element %d consumed %d of %d bytes", j, next-pos, sizes[i])
			}
			hv.Kids = append(hv.Kids, item)
			pos = next
		}
		p.leave()
		v.Kids = append(v.Kids, hv)
	}
	return pos, nil
}

func (p *parser) optional(n *graph.Node, v *msgtree.Value, data []byte, pos, end int) (int, error) {
	// The guard parses before the optional, so it resolves from the
	// enclosing scope; v's own subtree is not parsed yet.
	val, err := p.ref(n, n.Cond.Ref, pos)
	if err != nil {
		return 0, err
	}
	var eq bool
	if n.Cond.IsBytes {
		eq = val.IsBytes && string(val.B) == string(n.Cond.BytesVal)
	} else {
		eq = !val.IsBytes && val.U == n.Cond.UintVal
	}
	present := eq
	if n.Cond.Op == graph.CondNe {
		present = !eq
	}
	if !present {
		return pos, nil
	}
	v.Present = true
	kid := &msgtree.Value{}
	next, err := p.nodeAt(kid, n.Child(), data, pos, end)
	if err != nil {
		return 0, err
	}
	v.Kids = []*msgtree.Value{kid}
	return next, nil
}

func (p *parser) repetition(n *graph.Node, v *msgtree.Value, data []byte, pos, end int) (int, error) {
	switch n.Boundary.Kind {
	case graph.Delimited:
		for {
			if bytes.HasPrefix(data[pos:end], n.Boundary.Delim) {
				return pos + len(n.Boundary.Delim), nil
			}
			if pos >= end {
				return 0, perr(n, pos, "unterminated repetition (terminator %q)", n.Boundary.Delim)
			}
			item := &msgtree.Value{}
			next, err := p.nodeAt(item, n.Child(), data, pos, end)
			if err != nil {
				return 0, err
			}
			if next == pos {
				return 0, perr(n, pos, "repetition item consumed no bytes")
			}
			v.Kids = append(v.Kids, item)
			pos = next
		}
	case graph.End, graph.Length:
		subEnd := end
		if n.Boundary.Kind == graph.Length {
			l, err := p.evalRef(n, pos)
			if err != nil {
				return 0, err
			}
			if l > uint64(end-pos) {
				return 0, perr(n, pos, "length %d exceeds remaining %d bytes", l, end-pos)
			}
			subEnd = pos + int(l)
		}
		for pos < subEnd {
			item := &msgtree.Value{}
			next, err := p.nodeAt(item, n.Child(), data, pos, subEnd)
			if err != nil {
				return 0, err
			}
			if next == pos {
				return 0, perr(n, pos, "repetition item consumed no bytes")
			}
			v.Kids = append(v.Kids, item)
			pos = next
		}
		if pos != subEnd {
			return 0, perr(n, pos, "repetition overran its region by %d bytes", pos-subEnd)
		}
		return pos, nil
	default:
		return 0, perr(n, pos, "repetition with boundary %v", n.Boundary)
	}
}

func (p *parser) tabular(n *graph.Node, v *msgtree.Value, data []byte, pos, end int) (int, error) {
	count, err := p.evalRef(n, pos)
	if err != nil {
		return 0, err
	}
	if count > uint64(end-pos) {
		// Each item consumes at least one byte; a count larger than the
		// remaining region is certainly corrupt and would otherwise
		// allocate unboundedly.
		return 0, perr(n, pos, "count %d exceeds remaining %d bytes", count, end-pos)
	}
	for i := uint64(0); i < count; i++ {
		item := &msgtree.Value{}
		next, err := p.nodeAt(item, n.Child(), data, pos, end)
		if err != nil {
			return 0, err
		}
		v.Kids = append(v.Kids, item)
		pos = next
	}
	return pos, nil
}
