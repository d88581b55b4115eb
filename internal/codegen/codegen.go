// Package codegen generates the Go source code of a protocol library for
// one (possibly obfuscated) message format graph: the message parser, the
// message serializer, and the accessors the core application uses
// (paper §IV and §VI).
//
// The generated package mirrors the runtime engine of package wire, but
// everything is specialized per node with the transformation constants
// baked in: one struct per node, one size/emit/parse function per node,
// one setter/getter per value-bearing node. Aggregation transformations
// run inside the generated setters and getters; ordering transformations
// run inside the generated emit/parse functions — exactly the code
// placement the paper prescribes to defeat probe placement (§VI).
//
// The output is self-contained (stdlib only) and self-verifying: it
// exposes SelfTest(), which builds a sample message through the
// accessors, serializes, parses and compares.
package codegen

import (
	"bytes"
	"fmt"
	"go/format"
	"sort"
	"strings"

	"protoobf/internal/graph"
)

// Options parameterizes generation.
type Options struct {
	// Package is the generated package name (default "obfproto").
	Package string
	// Seed seeds the generated library's internal RNG (split randomness,
	// padding values).
	Seed int64
}

// Generate renders the protocol library source for g.
func Generate(g *graph.Graph, opts Options) (string, error) {
	if opts.Package == "" {
		opts.Package = "obfproto"
	}
	if err := g.Validate(); err != nil {
		return "", fmt.Errorf("codegen: graph invalid: %w", err)
	}
	gen := &generator{g: g, opts: opts, names: map[*graph.Node]string{}, used: map[string]bool{}}
	src, err := gen.run()
	if err != nil {
		return "", err
	}
	formatted, err := format.Source([]byte(src))
	if err != nil {
		// A formatting failure means the generator emitted invalid Go.
		return "", fmt.Errorf("codegen: generated source does not parse: %w", err)
	}
	return string(formatted), nil
}

type generator struct {
	g    *graph.Graph
	opts Options
	buf  bytes.Buffer
	// names maps nodes to sanitized identifiers.
	names map[*graph.Node]string
	used  map[string]bool
	// refNames are original names referenced by boundaries (stored in the
	// parse context as integers).
	refNames map[string]bool
	// guardNames are original names referenced by optional predicates.
	guardUint  map[string]bool
	guardBytes map[string]bool
	hasASCII   bool
}

func (gen *generator) p(format string, args ...any) {
	fmt.Fprintf(&gen.buf, format, args...)
}

// ident returns the sanitized unique identifier of a node.
func (gen *generator) ident(n *graph.Node) string {
	if s, ok := gen.names[n]; ok {
		return s
	}
	base := sanitize(n.Name)
	s := base
	for i := 2; gen.used[s]; i++ {
		s = fmt.Sprintf("%s_%d", base, i)
	}
	gen.used[s] = true
	gen.names[n] = s
	return s
}

func sanitize(name string) string {
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		case c == '$':
			b.WriteString("_d")
		default:
			b.WriteByte('x')
		}
	}
	return b.String()
}

// byteLit renders a []byte literal.
func byteLit(b []byte) string {
	parts := make([]string, len(b))
	for i, c := range b {
		parts[i] = fmt.Sprintf("0x%02x", c)
	}
	return "[]byte{" + strings.Join(parts, ", ") + "}"
}

func maskExpr(width int) string {
	if width >= 8 {
		return "" // full uint64, no mask needed
	}
	return fmt.Sprintf(" & 0x%x", (uint64(1)<<(8*width))-1)
}

// isBytesNode reports whether the node's user value is []byte.
func isBytesNode(n *graph.Node) bool { return n.Enc == graph.EncBytes }

func (gen *generator) collectRefs() {
	gen.refNames = map[string]bool{}
	gen.guardUint = map[string]bool{}
	gen.guardBytes = map[string]bool{}
	gen.g.Walk(func(n *graph.Node) bool {
		if n.Boundary.Ref != "" {
			gen.refNames[n.Boundary.Ref] = true
		}
		if n.Kind == graph.Optional {
			if n.Cond.IsBytes {
				gen.guardBytes[n.Cond.Ref] = true
			} else {
				gen.guardUint[n.Cond.Ref] = true
			}
		}
		if n.Enc == graph.EncASCII {
			gen.hasASCII = true
		}
		return true
	})
}

func (gen *generator) run() (string, error) {
	gen.collectRefs()
	nodes := gen.g.Nodes()
	// Reserve identifiers in DFS order for stable output.
	for _, n := range nodes {
		gen.ident(n)
	}

	gen.header()
	gen.helpers()
	for _, n := range nodes {
		gen.structFor(n)
	}
	for _, n := range nodes {
		gen.ctorFor(n)
	}
	for _, n := range nodes {
		if n.ValueBearing() {
			if err := gen.setterFor(n); err != nil {
				return "", err
			}
			if err := gen.getterFor(n); err != nil {
				return "", err
			}
		}
	}
	for _, n := range nodes {
		gen.sizeFor(n)
	}
	if err := gen.fillFunc(); err != nil {
		return "", err
	}
	for _, n := range nodes {
		gen.emitFor(n)
	}
	for _, n := range nodes {
		gen.parseFor(n)
	}
	gen.messageAPI()
	if err := gen.accessors(); err != nil {
		return "", err
	}
	if err := gen.selfTest(); err != nil {
		return "", err
	}
	return gen.buf.String(), nil
}

func (gen *generator) header() {
	gen.p("// Code generated by protoobf codegen. DO NOT EDIT.\n")
	gen.p("//\n// Protocol: %s\n// Seed: %d\n", gen.g.ProtocolName, gen.opts.Seed)
	gen.p("package %s\n\n", gen.opts.Package)
	gen.p("import (\n\t\"bytes\"\n\t\"fmt\"\n\t\"math/rand\"\n")
	if gen.hasASCII {
		gen.p("\t\"strconv\"\n")
	}
	gen.p(")\n\n")
}

func (gen *generator) helpers() {
	gen.p(`var prng = rand.New(rand.NewSource(%d))

const padAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

func padBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = padAlphabet[prng.Intn(len(padAlphabet))]
	}
	return b
}

func encU(u uint64, w int) []byte {
	out := make([]byte, w)
	for i := w - 1; i >= 0; i-- {
		out[i] = byte(u)
		u >>= 8
	}
	return out
}

func decU(b []byte) uint64 {
	var u uint64
	for _, c := range b {
		u = u<<8 | uint64(c)
	}
	return u
}

func indexOf(h, n []byte) int {
	return bytes.Index(h, n)
}

func reverseBytes(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[len(b)-1-i] = c
	}
	return out
}

// pctx is the parse context: input bytes plus the decoded values of the
// fields that boundaries and presence predicates reference.
type pctx struct {
	data  []byte
	refs  map[string]uint64
	refsB map[string][]byte
}

`, gen.opts.Seed)
}

// structFor emits the struct type of one node.
func (gen *generator) structFor(n *graph.Node) {
	id := gen.ident(n)
	switch n.Kind {
	case graph.Terminal:
		gen.p("// N%s holds field %q (%v, %v).\ntype N%s struct {\n\tB []byte\n\tS bool\n}\n\n", id, n.Name, n.Kind, n.Boundary, id)
	case graph.Sequence:
		gen.p("// N%s is sequence %q.\ntype N%s struct {\n", id, n.Name, id)
		for _, c := range n.Children {
			gen.p("\tC%s *N%s\n", gen.ident(c), gen.ident(c))
		}
		gen.p("}\n\n")
	case graph.Optional:
		gen.p("// N%s is optional %q (present when %v).\ntype N%s struct {\n\tPresent bool\n\tC%s *N%s\n}\n\n",
			id, n.Name, n.Cond, id, gen.ident(n.Child()), gen.ident(n.Child()))
	case graph.Repetition, graph.Tabular:
		gen.p("// N%s repeats %q.\ntype N%s struct {\n\tItems []*N%s\n}\n\n", id, n.Name, id, gen.ident(n.Child()))
	}
}

// ctorFor emits the constructor of one node (pads pre-filled).
func (gen *generator) ctorFor(n *graph.Node) {
	id := gen.ident(n)
	switch n.Kind {
	case graph.Terminal:
		if n.Origin.Role == graph.RolePad {
			gen.p("func new%s() *N%s { return &N%s{B: padBytes(%d), S: true} }\n\n", id, id, id, n.Boundary.Size)
		} else {
			gen.p("func new%s() *N%s { return &N%s{} }\n\n", id, id, id)
		}
	case graph.Sequence:
		gen.p("func new%s() *N%s {\n\treturn &N%s{\n", id, id, id)
		for _, c := range n.Children {
			gen.p("\t\tC%s: new%s(),\n", gen.ident(c), gen.ident(c))
		}
		gen.p("\t}\n}\n\n")
	case graph.Optional:
		gen.p("func new%s() *N%s { return &N%s{} }\n\n", id, id, id)
	case graph.Repetition, graph.Tabular:
		gen.p("func new%s() *N%s { return &N%s{} }\n\n", id, id, id)
	}
}

// opsEncode emits statements transforming variable v (uint64 or []byte)
// in the encode direction for node n.
func (gen *generator) opsEncode(n *graph.Node, v string) {
	w := n.OpWidth()
	for _, op := range n.Ops {
		switch op.Kind {
		case graph.OpAdd:
			gen.p("\t%s = (%s + 0x%x)%s\n", v, v, op.K, maskExpr(w))
		case graph.OpSub:
			gen.p("\t%s = (%s - 0x%x)%s\n", v, v, op.K, maskExpr(w))
		case graph.OpXor:
			gen.p("\t%s = (%s ^ 0x%x)%s\n", v, v, op.K, maskExpr(w))
		case graph.OpByteAdd, graph.OpByteXor:
			opc := "+"
			if op.Kind == graph.OpByteXor {
				opc = "^"
			}
			gen.p("\t{\n\t\tkey := %s\n\t\tout := make([]byte, len(%s))\n\t\tfor i, c := range %s {\n\t\t\tout[i] = c %s key[i%%len(key)]\n\t\t}\n\t\t%s = out\n\t}\n", byteLit(op.KB), v, v, opc, v)
		}
	}
}

// opsDecode emits the inverse pipeline (reverse order).
func (gen *generator) opsDecode(n *graph.Node, v string) {
	w := n.OpWidth()
	for i := len(n.Ops) - 1; i >= 0; i-- {
		op := n.Ops[i]
		switch op.Kind {
		case graph.OpAdd:
			gen.p("\t%s = (%s - 0x%x)%s\n", v, v, op.K, maskExpr(w))
		case graph.OpSub:
			gen.p("\t%s = (%s + 0x%x)%s\n", v, v, op.K, maskExpr(w))
		case graph.OpXor:
			gen.p("\t%s = (%s ^ 0x%x)%s\n", v, v, op.K, maskExpr(w))
		case graph.OpByteAdd, graph.OpByteXor:
			opc := "-"
			if op.Kind == graph.OpByteXor {
				opc = "^"
			}
			gen.p("\t{\n\t\tkey := %s\n\t\tout := make([]byte, len(%s))\n\t\tfor i, c := range %s {\n\t\t\tout[i] = c %s key[i%%len(key)]\n\t\t}\n\t\t%s = out\n\t}\n", byteLit(op.KB), v, v, opc, v)
		}
	}
}

// splitHalfNodes finds the shallowest split-role holders under n.
func splitHalfNodes(n *graph.Node) (l, r *graph.Node) {
	return graph.FindRoleHolder(n, graph.RoleSplitLeft), graph.FindRoleHolder(n, graph.RoleSplitRight)
}

// halfPath renders the field navigation from a comb struct variable to a
// half node (through RoleGroup wrappers).
func (gen *generator) halfPath(from *graph.Node, half *graph.Node) string {
	var segs []string
	for cur := half; cur != from; cur = cur.Parent {
		segs = append(segs, "C"+gen.ident(cur))
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return strings.Join(segs, ".")
}

// setterFor emits setval<id> assigning the user-level value, applying the
// aggregation pipeline (ops + splits) on the fly.
func (gen *generator) setterFor(n *graph.Node) error {
	id := gen.ident(n)
	if isBytesNode(n) {
		gen.p("// setval%s stores field %q (bytes).\nfunc setval%s(x *N%s, v []byte) error {\n", id, n.Origin.Name, id, id)
		if n.MinLen > 0 {
			gen.p("\tif len(v) < %d {\n\t\treturn fmt.Errorf(\"field %s: %%d bytes below minimum %d\", len(v))\n\t}\n", n.MinLen, n.Origin.Name, n.MinLen)
		}
		gen.opsEncode(n, "v")
		if n.Comb == nil {
			if n.Boundary.Kind == graph.Fixed {
				gen.p("\tif len(v) != %d {\n\t\treturn fmt.Errorf(\"field %s: %%d bytes for a %d-byte field\", len(v))\n\t}\n", n.Boundary.Size, n.Origin.Name, n.Boundary.Size)
			}
			gen.p("\tx.B = append([]byte(nil), v...)\n\tx.S = true\n\treturn nil\n}\n\n")
			return nil
		}
		if n.Comb.Kind != graph.CombCat {
			return fmt.Errorf("codegen: bytes node %q with arithmetic combine", n.Name)
		}
		l, r := splitHalfNodes(n)
		if l == nil || r == nil {
			return fmt.Errorf("codegen: split halves of %q missing", n.Name)
		}
		gen.p("\tif len(v) < %d {\n\t\treturn fmt.Errorf(\"field %s: too short to split\")\n\t}\n", n.Comb.SplitAt, n.Origin.Name)
		gen.p("\tif err := setval%s(x.%s, v[:%d]); err != nil {\n\t\treturn err\n\t}\n", gen.ident(l), gen.halfPath(n, l), n.Comb.SplitAt)
		gen.p("\treturn setval%s(x.%s, v[%d:])\n}\n\n", gen.ident(r), gen.halfPath(n, r), n.Comb.SplitAt)
		return nil
	}

	// Integer-valued node (EncUint or EncASCII).
	gen.p("// setval%s stores field %q (integer).\nfunc setval%s(x *N%s, v uint64) error {\n", id, n.Origin.Name, id, id)
	// Overflow detection must precede the (masking) value pipeline.
	if w := n.OpWidth(); n.Enc == graph.EncUint && w < 8 {
		gen.p("\tif v > 0x%x {\n\t\treturn fmt.Errorf(\"field %s: %%d overflows %d bytes\", v)\n\t}\n", (uint64(1)<<(8*w))-1, n.Origin.Name, w)
	}
	gen.opsEncode(n, "v")
	if n.Comb == nil {
		switch n.Enc {
		case graph.EncUint:
			w := n.Boundary.Size
			if w < 8 {
				gen.p("\tif v > 0x%x {\n\t\treturn fmt.Errorf(\"field %s: %%d overflows %d bytes\", v)\n\t}\n", (uint64(1)<<(8*w))-1, n.Origin.Name, w)
			}
			gen.p("\tx.B = encU(v, %d)\n\tx.S = true\n\treturn nil\n}\n\n", w)
		case graph.EncASCII:
			gen.p("\tx.B = []byte(strconv.FormatUint(v, 10))\n\tx.S = true\n\treturn nil\n}\n\n")
		default:
			return fmt.Errorf("codegen: integer setter for %v", n.Enc)
		}
		return nil
	}
	l, r := splitHalfNodes(n)
	if l == nil || r == nil {
		return fmt.Errorf("codegen: split halves of %q missing", n.Name)
	}
	lid, rid := gen.ident(l), gen.ident(r)
	lp, rp := gen.halfPath(n, l), gen.halfPath(n, r)
	w := n.Comb.Width
	switch n.Comb.Kind {
	case graph.CombAdd:
		gen.p("\tl := prng.Uint64()%s\n\tr := (v - l)%s\n", maskExpr(w), maskExpr(w))
	case graph.CombSub:
		gen.p("\tr := prng.Uint64()%s\n\tl := (v + r)%s\n", maskExpr(w), maskExpr(w))
	case graph.CombXor:
		gen.p("\tl := prng.Uint64()%s\n\tr := (v ^ l)%s\n", maskExpr(w), maskExpr(w))
	case graph.CombCat:
		gen.p("\traw := encU(v, %d)\n", w)
		gen.p("\tif err := setval%s(x.%s, raw[:%d]); err != nil {\n\t\treturn err\n\t}\n", lid, lp, n.Comb.SplitAt)
		gen.p("\treturn setval%s(x.%s, raw[%d:])\n}\n\n", rid, rp, n.Comb.SplitAt)
		return nil
	}
	gen.p("\tif err := setval%s(x.%s, l); err != nil {\n\t\treturn err\n\t}\n", lid, lp)
	gen.p("\treturn setval%s(x.%s, r)\n}\n\n", rid, rp)
	return nil
}

// getterFor emits getval<id>, the inverse of setval<id>.
func (gen *generator) getterFor(n *graph.Node) error {
	id := gen.ident(n)
	if isBytesNode(n) {
		gen.p("// getval%s recovers field %q (bytes).\nfunc getval%s(x *N%s) ([]byte, error) {\n", id, n.Origin.Name, id, id)
		if n.Comb == nil {
			gen.p("\tif !x.S {\n\t\treturn nil, fmt.Errorf(\"field %s not set\")\n\t}\n", n.Origin.Name)
			gen.p("\tv := append([]byte(nil), x.B...)\n")
		} else {
			l, r := splitHalfNodes(n)
			gen.p("\tlv, err := getval%s(x.%s)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n", gen.ident(l), gen.halfPath(n, l))
			gen.p("\trv, err := getval%s(x.%s)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n", gen.ident(r), gen.halfPath(n, r))
			gen.p("\tv := append(append([]byte(nil), lv...), rv...)\n")
		}
		gen.opsDecode(n, "v")
		gen.p("\treturn v, nil\n}\n\n")
		return nil
	}
	gen.p("// getval%s recovers field %q (integer).\nfunc getval%s(x *N%s) (uint64, error) {\n", id, n.Origin.Name, id, id)
	if n.Comb == nil {
		gen.p("\tif !x.S {\n\t\treturn 0, fmt.Errorf(\"field %s not set\")\n\t}\n", n.Origin.Name)
		switch n.Enc {
		case graph.EncUint:
			gen.p("\tv := decU(x.B)\n")
		case graph.EncASCII:
			gen.p("\tv, err := strconv.ParseUint(string(x.B), 10, 64)\n\tif err != nil {\n\t\treturn 0, fmt.Errorf(\"field %s: %%v\", err)\n\t}\n", n.Origin.Name)
		}
	} else {
		l, r := splitHalfNodes(n)
		lid, rid := gen.ident(l), gen.ident(r)
		lp, rp := gen.halfPath(n, l), gen.halfPath(n, r)
		w := n.Comb.Width
		switch n.Comb.Kind {
		case graph.CombCat:
			gen.p("\tlv, err := getval%s(x.%s)\n\tif err != nil {\n\t\treturn 0, err\n\t}\n", lid, lp)
			gen.p("\trv, err := getval%s(x.%s)\n\tif err != nil {\n\t\treturn 0, err\n\t}\n", rid, rp)
			gen.p("\tv := decU(append(append([]byte(nil), lv...), rv...))\n")
		default:
			gen.p("\tlv, err := getval%s(x.%s)\n\tif err != nil {\n\t\treturn 0, err\n\t}\n", lid, lp)
			gen.p("\trv, err := getval%s(x.%s)\n\tif err != nil {\n\t\treturn 0, err\n\t}\n", rid, rp)
			switch n.Comb.Kind {
			case graph.CombAdd:
				gen.p("\tv := (lv + rv)%s\n", maskExpr(w))
			case graph.CombSub:
				gen.p("\tv := (lv - rv)%s\n", maskExpr(w))
			case graph.CombXor:
				gen.p("\tv := (lv ^ rv)%s\n", maskExpr(w))
			}
		}
	}
	gen.opsDecode(n, "v")
	gen.p("\treturn v, nil\n}\n\n")
	return nil
}

// sizeFor emits size<id> computing the serialized size of a subtree.
func (gen *generator) sizeFor(n *graph.Node) {
	id := gen.ident(n)
	gen.p("// size%s is the serialized size of %q.\nfunc size%s(x *N%s) (int, error) {\n", id, n.Name, id, id)
	switch n.Kind {
	case graph.Terminal:
		if n.Boundary.Kind == graph.Fixed {
			gen.p("\t_ = x\n\treturn %d, nil\n}\n\n", n.Boundary.Size)
			return
		}
		gen.p("\tif !x.S {\n\t\treturn 0, fmt.Errorf(\"field %s not set\")\n\t}\n", n.Name)
		extra := 0
		if n.Boundary.Kind == graph.Delimited {
			extra = len(n.Boundary.Delim)
		}
		gen.p("\treturn len(x.B) + %d, nil\n}\n\n", extra)
	case graph.Optional:
		gen.p("\tif !x.Present {\n\t\treturn 0, nil\n\t}\n\treturn size%s(x.C%s)\n}\n\n", gen.ident(n.Child()), gen.ident(n.Child()))
	case graph.Sequence:
		gen.p("\ttotal := 0\n")
		for _, c := range n.Children {
			cid := gen.ident(c)
			gen.p("\tif s, err := size%s(x.C%s); err != nil {\n\t\treturn 0, err\n\t} else {\n\t\ttotal += s\n\t}\n", cid, cid)
		}
		if n.Boundary.Kind == graph.Delimited {
			gen.p("\ttotal += %d\n", len(n.Boundary.Delim))
		}
		gen.p("\treturn total, nil\n}\n\n")
	case graph.Repetition, graph.Tabular:
		cid := gen.ident(n.Child())
		gen.p("\ttotal := 0\n\tfor _, it := range x.Items {\n\t\ts, err := size%s(it)\n\t\tif err != nil {\n\t\t\treturn 0, err\n\t\t}\n\t\ttotal += s\n\t}\n", cid)
		if n.Boundary.Kind == graph.Delimited {
			gen.p("\ttotal += %d\n", len(n.Boundary.Delim))
		}
		gen.p("\treturn total, nil\n}\n\n")
	}
}

// instancePath returns the chain of nodes from the root (exclusive) down
// to n (inclusive).
func instancePath(n *graph.Node) []*graph.Node {
	var chain []*graph.Node
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		chain = append(chain, cur)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// fillFunc emits fillMsg, assigning every auto-filled reference target
// (Length/Counter) from the sizes and counts of its dependent node. The
// navigation, loops over repeated containers and optional-presence guards
// are generated statically from the graph.
func (gen *generator) fillFunc() error {
	gen.p("// fillMsg computes the auto-filled fields (lengths and counters)\n// before emission.\nfunc fillMsg(root *N%s) error {\n", gen.ident(gen.g.Root))

	var deps []*graph.Node
	gen.g.Walk(func(n *graph.Node) bool {
		if n.Boundary.Ref != "" {
			deps = append(deps, n)
		}
		return true
	})
	if len(deps) == 0 {
		gen.p("\t_ = root\n\treturn nil\n}\n\n")
		return nil
	}

	for i, d := range deps {
		ref := d.Boundary.Ref
		target := gen.g.FindOriginal(ref)
		if target == nil {
			return fmt.Errorf("codegen: reference %q unresolved", ref)
		}
		gen.p("\t// %v of %q -> %q\n", d.Boundary.Kind, d.Name, ref)
		if err := gen.fillOne(i, d, target); err != nil {
			return err
		}
	}
	gen.p("\treturn nil\n}\n\n")
	return nil
}

// fillOne emits the statements for one dependent/target pair, opening
// loops and presence guards along the common path.
func (gen *generator) fillOne(idx int, dep, target *graph.Node) error {
	dPath := instancePath(dep)
	tPath := instancePath(target)
	common := 0
	for common < len(dPath) && common < len(tPath) && dPath[common] == tPath[common] {
		common++
	}
	// Walk the shared prefix, opening loops/guards.
	varName := "root"
	indent := "\t"
	closes := []string{}
	step := func(n *graph.Node, fromRepeat bool) {
		if fromRepeat {
			it := fmt.Sprintf("it%d_%d", idx, len(closes))
			gen.p("%sfor _, %s := range %s.Items {\n", indent, it, varName)
			closes = append(closes, indent+"}\n")
			indent += "\t"
			varName = it
			return
		}
		varName = varName + ".C" + gen.ident(n)
	}
	guard := func(n *graph.Node) {
		gen.p("%sif %s.Present {\n", indent, varName)
		closes = append(closes, indent+"}\n")
		indent += "\t"
	}
	for i := 0; i < common; i++ {
		n := dPath[i]
		parentKind := gen.g.Root.Kind
		if i > 0 {
			parentKind = dPath[i-1].Kind
		}
		if parentKind == graph.Repetition || parentKind == graph.Tabular {
			step(n, true)
		} else {
			step(n, false)
			if n.Kind == graph.Optional {
				guard(n)
				varName += ".C" + gen.ident(n.Child())
				// The next path element IS the child; skip it.
				i++
				if i < common && dPath[i] != n.Child() {
					return fmt.Errorf("codegen: optional path mismatch at %q", n.Name)
				}
			}
		}
	}
	// Navigate from the common prefix to the dependent and the target.
	nav := func(base string, path []*graph.Node) (string, error) {
		v := base
		for i := common; i < len(path); i++ {
			n := path[i]
			parent := gen.g.Root
			if i > 0 {
				parent = path[i-1]
			}
			if parent.Kind == graph.Repetition || parent.Kind == graph.Tabular {
				return "", fmt.Errorf("codegen: reference path of %q crosses items below the common prefix", dep.Name)
			}
			if parent.Kind == graph.Optional {
				// Optional child pointer (presence guaranteed by the
				// shared guard or by construction: a dependent inside a
				// disabled optional is never serialized).
				v += ".C" + gen.ident(n)
				continue
			}
			v += ".C" + gen.ident(n)
		}
		return v, nil
	}
	// Presence guards below the common prefix on the dependent side: if
	// the dependent sits inside optionals, only fill when instantiated.
	for i := common; i < len(dPath); i++ {
		if dPath[i].Kind == graph.Optional {
			ov, err := nav(varName, dPath[:i+1])
			if err != nil {
				return err
			}
			gen.p("%sif %s.Present {\n", indent, ov)
			closes = append(closes, indent+"}\n")
			indent += "\t"
		}
	}
	dVar, err := nav(varName, dPath)
	if err != nil {
		return err
	}
	tVar, err := nav(varName, tPath)
	if err != nil {
		return err
	}
	switch dep.Boundary.Kind {
	case graph.Length:
		gen.p("%s{\n%s\tsz, err := size%s(%s)\n%s\tif err != nil {\n%s\t\treturn err\n%s\t}\n%s\tif err := setval%s(%s, uint64(sz)); err != nil {\n%s\t\treturn err\n%s\t}\n%s}\n",
			indent, indent, gen.ident(dep), dVar, indent, indent, indent, indent, gen.ident(target), tVar, indent, indent, indent)
	case graph.Counter:
		gen.p("%sif err := setval%s(%s, uint64(len(%s.Items))); err != nil {\n%s\treturn err\n%s}\n",
			indent, gen.ident(target), tVar, dVar, indent, indent)
	default:
		return fmt.Errorf("codegen: dependent %q has boundary %v", dep.Name, dep.Boundary.Kind)
	}
	for i := len(closes) - 1; i >= 0; i-- {
		gen.p("%s", closes[i])
	}
	return nil
}

// emitFor emits emit<id>, writing the subtree (reversal applied).
func (gen *generator) emitFor(n *graph.Node) {
	id := gen.ident(n)
	gen.p("// emit%s serializes %q.\nfunc emit%s(x *N%s, out *bytes.Buffer) error {\n", id, n.Name, id, id)
	if n.Reversed {
		gen.p("\tvar sub bytes.Buffer\n\tif err := emitInner%s(x, &sub); err != nil {\n\t\treturn err\n\t}\n\tout.Write(reverseBytes(sub.Bytes()))\n\treturn nil\n}\n\n", id)
		gen.p("func emitInner%s(x *N%s, out *bytes.Buffer) error {\n", id, id)
	}
	switch n.Kind {
	case graph.Terminal:
		gen.p("\tif !x.S {\n\t\treturn fmt.Errorf(\"field %s not set\")\n\t}\n\tout.Write(x.B)\n", n.Name)
		if n.Boundary.Kind == graph.Delimited {
			gen.p("\tout.Write(%s)\n", byteLit(n.Boundary.Delim))
		}
		gen.p("\treturn nil\n}\n\n")
	case graph.Optional:
		cid := gen.ident(n.Child())
		gen.p("\tif !x.Present {\n\t\treturn nil\n\t}\n\treturn emit%s(x.C%s, out)\n}\n\n", cid, cid)
	case graph.Sequence:
		for _, c := range n.Children {
			cid := gen.ident(c)
			gen.p("\tif err := emit%s(x.C%s, out); err != nil {\n\t\treturn err\n\t}\n", cid, cid)
		}
		if n.Boundary.Kind == graph.Delimited {
			gen.p("\tout.Write(%s)\n", byteLit(n.Boundary.Delim))
		}
		gen.p("\treturn nil\n}\n\n")
	case graph.Repetition, graph.Tabular:
		cid := gen.ident(n.Child())
		gen.p("\tfor _, it := range x.Items {\n\t\tif err := emit%s(it, out); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n", cid)
		if n.Boundary.Kind == graph.Delimited {
			gen.p("\tout.Write(%s)\n", byteLit(n.Boundary.Delim))
		}
		gen.p("\treturn nil\n}\n\n")
	}
}

// refStore emits the statement recording a just-parsed reference or guard
// value into the parse context.
func (gen *generator) refStore(n *graph.Node, v string) {
	name := n.Origin.Name
	isRef := gen.refNames[name] && (n.Origin.Role == graph.RoleWhole || n.Origin.Role == graph.RoleLengthOf)
	isGuardU := gen.guardUint[name] && n.Origin.Role == graph.RoleWhole
	isGuardB := gen.guardBytes[name] && n.Origin.Role == graph.RoleWhole
	if !isRef && !isGuardU && !isGuardB {
		return
	}
	id := gen.ident(n)
	if isGuardB {
		gen.p("\t{\n\t\tu, err := getval%s(%s)\n\t\tif err != nil {\n\t\t\treturn nil, 0, err\n\t\t}\n\t\tc.refsB[%q] = u\n\t}\n", id, v, name)
		return
	}
	gen.p("\t{\n\t\tu, err := getval%s(%s)\n\t\tif err != nil {\n\t\t\treturn nil, 0, err\n\t\t}\n\t\tc.refs[%q] = u\n\t}\n", id, v, name)
}

// parseFor emits parse<id>.
func (gen *generator) parseFor(n *graph.Node) {
	id := gen.ident(n)
	gen.p("// parse%s parses %q from c.data[pos:end].\nfunc parse%s(c *pctx, pos, end int) (*N%s, int, error) {\n", id, n.Name, id, id)
	if n.Reversed {
		// Extent, reverse, reparse on a sub-context.
		if sz, ok := graph.StaticSize(n); ok {
			gen.p("\text := %d\n", sz)
		} else if n.Boundary.Kind == graph.Length {
			gen.refRead(n, n.Boundary.Ref, "l64")
			gen.p("\text := int(l64)\n")
		} else {
			gen.p("\text := end - pos\n")
		}
		gen.p("\tif pos+ext > end || ext < 0 {\n\t\treturn nil, 0, fmt.Errorf(\"%s: reversed region out of bounds\")\n\t}\n", n.Name)
		gen.p("\tsub := &pctx{data: reverseBytes(c.data[pos : pos+ext]), refs: c.refs, refsB: c.refsB}\n")
		gen.p("\tx, used, err := parseInner%s(sub, 0, ext)\n\tif err != nil {\n\t\treturn nil, 0, err\n\t}\n", id)
		gen.p("\tif used != ext {\n\t\treturn nil, 0, fmt.Errorf(\"%s: reversed region not fully consumed\")\n\t}\n", n.Name)
		gen.p("\treturn x, pos + ext, nil\n}\n\n")
		gen.p("func parseInner%s(c *pctx, pos, end int) (*N%s, int, error) {\n", id, id)
	}
	switch n.Kind {
	case graph.Terminal:
		gen.parseTerminalBody(n)
	case graph.Optional:
		gen.parseOptionalBody(n)
	case graph.Sequence:
		gen.parseSequenceBody(n)
	case graph.Repetition:
		gen.parseRepetitionBody(n)
	case graph.Tabular:
		gen.parseTabularBody(n)
	}
}

func (gen *generator) parseTerminalBody(n *graph.Node) {
	id := gen.ident(n)
	gen.p("\tx := &N%s{}\n", id)
	switch n.Boundary.Kind {
	case graph.Fixed:
		gen.p("\tif pos+%d > end {\n\t\treturn nil, 0, fmt.Errorf(\"%s: need %d bytes, %%d remain\", end-pos)\n\t}\n", n.Boundary.Size, n.Name, n.Boundary.Size)
		gen.p("\tx.B = append([]byte(nil), c.data[pos:pos+%d]...)\n\tx.S = true\n\tpos += %d\n", n.Boundary.Size, n.Boundary.Size)
	case graph.Delimited:
		gen.p("\tidx := indexOf(c.data[pos:end], %s)\n\tif idx < 0 {\n\t\treturn nil, 0, fmt.Errorf(\"%s: delimiter not found\")\n\t}\n", byteLit(n.Boundary.Delim), n.Name)
		gen.p("\tx.B = append([]byte(nil), c.data[pos:pos+idx]...)\n\tx.S = true\n\tpos += idx + %d\n", len(n.Boundary.Delim))
	case graph.Length:
		gen.refRead(n, n.Boundary.Ref, "l64")
		gen.p("\tl := int(l64)\n\tif l < 0 || pos+l > end {\n\t\treturn nil, 0, fmt.Errorf(\"%s: length %%d out of bounds\", l)\n\t}\n", n.Name)
		gen.p("\tx.B = append([]byte(nil), c.data[pos:pos+l]...)\n\tx.S = true\n\tpos += l\n")
	case graph.End:
		gen.p("\tx.B = append([]byte(nil), c.data[pos:end]...)\n\tx.S = true\n\tpos = end\n")
	}
	if n.MinLen > 0 {
		gen.p("\tif len(x.B) < %d {\n\t\treturn nil, 0, fmt.Errorf(\"%s: below minimum length %d\")\n\t}\n", n.MinLen, n.Name, n.MinLen)
	}
	gen.refStore(n, "x")
	gen.p("\treturn x, pos, nil\n}\n\n")
}

func (gen *generator) parseOptionalBody(n *graph.Node) {
	id := gen.ident(n)
	cid := gen.ident(n.Child())
	gen.p("\tx := &N%s{}\n", id)
	var cond string
	if n.Cond.IsBytes {
		gen.p("\tgb, ok := c.refsB[%q]\n\tif !ok {\n\t\treturn nil, 0, fmt.Errorf(\"%s: guard %s not parsed yet\")\n\t}\n", n.Cond.Ref, n.Name, n.Cond.Ref)
		cond = fmt.Sprintf("bytes.Equal(gb, %s)", byteLit(n.Cond.BytesVal))
	} else {
		gen.p("\tgv, ok := c.refs[%q]\n\tif !ok {\n\t\treturn nil, 0, fmt.Errorf(\"%s: guard %s not parsed yet\")\n\t}\n", n.Cond.Ref, n.Name, n.Cond.Ref)
		cond = fmt.Sprintf("gv == 0x%x", n.Cond.UintVal)
	}
	if n.Cond.Op == graph.CondNe {
		cond = "!(" + cond + ")"
	}
	gen.p("\tif %s {\n\t\tx.Present = true\n\t\tkid, next, err := parse%s(c, pos, end)\n\t\tif err != nil {\n\t\t\treturn nil, 0, err\n\t\t}\n\t\tx.C%s = kid\n\t\tpos = next\n\t}\n",
		cond, cid, cid)
	gen.p("\treturn x, pos, nil\n}\n\n")
}

func (gen *generator) parseSequenceBody(n *graph.Node) {
	id := gen.ident(n)
	if n.Pair != nil {
		gen.parsePairBody(n)
		return
	}
	gen.p("\tx := &N%s{}\n", id)
	enforce := false
	switch n.Boundary.Kind {
	case graph.Length:
		gen.refRead(n, n.Boundary.Ref, "l64")
		gen.p("\tl := int(l64)\n\tif l < 0 || pos+l > end {\n\t\treturn nil, 0, fmt.Errorf(\"%s: length %%d out of bounds\", l)\n\t}\n\tsubEnd := pos + l\n", n.Name)
		enforce = true
	case graph.End:
		gen.p("\tsubEnd := end\n")
		enforce = true
	default:
		gen.p("\tsubEnd := end\n")
	}
	for _, c := range n.Children {
		cid := gen.ident(c)
		gen.p("\t{\n\t\tkid, next, err := parse%s(c, pos, subEnd)\n\t\tif err != nil {\n\t\t\treturn nil, 0, err\n\t\t}\n\t\tx.C%s = kid\n\t\tpos = next\n\t}\n", cid, cid)
	}
	if enforce {
		gen.p("\tif pos != subEnd {\n\t\treturn nil, 0, fmt.Errorf(\"%s: %%d unconsumed bytes\", subEnd-pos)\n\t}\n", n.Name)
	}
	if n.Boundary.Kind == graph.Delimited {
		d := n.Boundary.Delim
		gen.p("\tif pos+%d > end || !bytes.Equal(c.data[pos:pos+%d], %s) {\n\t\treturn nil, 0, fmt.Errorf(\"%s: missing delimiter\")\n\t}\n\tpos += %d\n",
			len(d), len(d), byteLit(d), n.Name, len(d))
	}
	// A combine sequence carries the value of a split original field:
	// record it for later boundary references and presence predicates.
	if n.ValueBearing() {
		gen.refStore(n, "x")
	}
	gen.p("\treturn x, pos, nil\n}\n\n")
}

// refRead emits a checked read of a reference value into varName.
func (gen *generator) refRead(n *graph.Node, ref, varName string) {
	gen.p("\t%s, ok := c.refs[%q]\n\tif !ok {\n\t\treturn nil, 0, fmt.Errorf(\"%s: reference %s not parsed yet\")\n\t}\n", varName, ref, n.Name, ref)
}

func (gen *generator) parsePairBody(n *graph.Node) {
	id := gen.ident(n)
	gen.p("\tx := &N%s{}\n", id)
	switch n.Boundary.Kind {
	case graph.Length:
		gen.refRead(n, n.Boundary.Ref, "l64")
		gen.p("\text := int(l64)\n")
	case graph.End:
		gen.p("\text := end - pos\n")
	default:
		gen.p("\text := end - pos\n")
	}
	var sizes []int
	for _, half := range n.Children {
		sz, _ := graph.StaticSize(half.Child())
		sizes = append(sizes, sz)
	}
	per := sizes[0] + sizes[1]
	gen.p("\tif ext < 0 || pos+ext > end || ext%%%d != 0 {\n\t\treturn nil, 0, fmt.Errorf(\"%s: region %%d not a multiple of %d\", ext)\n\t}\n\tcount := ext / %d\n", per, n.Name, per, per)
	for i, half := range n.Children {
		hid := gen.ident(half)
		eid := gen.ident(half.Child())
		gen.p("\th%d := &N%s{}\n\tfor j := 0; j < count; j++ {\n\t\tit, next, err := parse%s(c, pos, pos+%d)\n\t\tif err != nil {\n\t\t\treturn nil, 0, err\n\t\t}\n\t\tif next != pos+%d {\n\t\t\treturn nil, 0, fmt.Errorf(\"%s: element size mismatch\")\n\t\t}\n\t\th%d.Items = append(h%d.Items, it)\n\t\tpos = next\n\t}\n\tx.C%s = h%d\n",
			i, hid, eid, sizes[i], sizes[i], n.Name, i, i, hid, i)
	}
	gen.p("\treturn x, pos, nil\n}\n\n")
}

func (gen *generator) parseRepetitionBody(n *graph.Node) {
	id := gen.ident(n)
	cid := gen.ident(n.Child())
	gen.p("\tx := &N%s{}\n", id)
	switch n.Boundary.Kind {
	case graph.Delimited:
		d := n.Boundary.Delim
		gen.p("\tfor {\n\t\tif pos+%d <= end && bytes.Equal(c.data[pos:pos+%d], %s) {\n\t\t\treturn x, pos + %d, nil\n\t\t}\n\t\tif pos >= end {\n\t\t\treturn nil, 0, fmt.Errorf(\"%s: unterminated repetition\")\n\t\t}\n\t\tit, next, err := parse%s(c, pos, end)\n\t\tif err != nil {\n\t\t\treturn nil, 0, err\n\t\t}\n\t\tif next == pos {\n\t\t\treturn nil, 0, fmt.Errorf(\"%s: empty item\")\n\t\t}\n\t\tx.Items = append(x.Items, it)\n\t\tpos = next\n\t}\n}\n\n",
			len(d), len(d), byteLit(d), len(d), n.Name, cid, n.Name)
		return
	case graph.Length:
		gen.refRead(n, n.Boundary.Ref, "l64")
		gen.p("\tl := int(l64)\n\tif l < 0 || pos+l > end {\n\t\treturn nil, 0, fmt.Errorf(\"%s: length %%d out of bounds\", l)\n\t}\n\tsubEnd := pos + l\n", n.Name)
	default: // End or Delegated (pair halves are parsed by the pair)
		gen.p("\tsubEnd := end\n")
	}
	gen.p("\tfor pos < subEnd {\n\t\tit, next, err := parse%s(c, pos, subEnd)\n\t\tif err != nil {\n\t\t\treturn nil, 0, err\n\t\t}\n\t\tif next == pos {\n\t\t\treturn nil, 0, fmt.Errorf(\"%s: empty item\")\n\t\t}\n\t\tx.Items = append(x.Items, it)\n\t\tpos = next\n\t}\n\treturn x, pos, nil\n}\n\n", cid, n.Name)
}

func (gen *generator) parseTabularBody(n *graph.Node) {
	id := gen.ident(n)
	cid := gen.ident(n.Child())
	gen.p("\tx := &N%s{}\n", id)
	gen.refRead(n, n.Boundary.Ref, "c64")
	gen.p("\tcount := int(c64)\n\tif count < 0 || count > end-pos {\n\t\treturn nil, 0, fmt.Errorf(\"%s: count %%d out of bounds\", count)\n\t}\n", n.Name)
	gen.p("\tfor i := 0; i < count; i++ {\n\t\tit, next, err := parse%s(c, pos, end)\n\t\tif err != nil {\n\t\t\treturn nil, 0, err\n\t\t}\n\t\tx.Items = append(x.Items, it)\n\t\tpos = next\n\t}\n\treturn x, pos, nil\n}\n\n", cid)
}

// messageAPI emits the top-level Message type, Serialize and Parse.
func (gen *generator) messageAPI() {
	rid := gen.ident(gen.g.Root)
	gen.p(`// Message is one %s message under construction or parsed.
type Message struct {
	Root *N%s
}

// New creates an empty message.
func New() *Message { return &Message{Root: new%s()} }

// Serialize computes the auto-filled fields and emits the obfuscated
// wire bytes.
func (m *Message) Serialize() ([]byte, error) {
	if err := fillMsg(m.Root); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := emit%s(m.Root, &out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Parse rebuilds a message from obfuscated wire bytes.
func Parse(data []byte) (*Message, error) {
	c := &pctx{data: data, refs: map[string]uint64{}, refsB: map[string][]byte{}}
	root, pos, err := parse%s(c, 0, len(data))
	if err != nil {
		return nil, err
	}
	if pos != len(data) {
		return nil, fmt.Errorf("parse: %%d trailing bytes", len(data)-pos)
	}
	return &Message{Root: root}, nil
}

`, gen.g.ProtocolName, rid, rid, rid, rid)
}

// sortedUserFields returns user-facing value-bearing nodes (RoleWhole,
// not auto-filled, not pads) in DFS order.
func (gen *generator) userFields() []*graph.Node {
	var out []*graph.Node
	gen.g.Walk(func(n *graph.Node) bool {
		if n.ValueBearing() && n.Origin.Role == graph.RoleWhole && !n.AutoFill {
			out = append(out, n)
			return false // do not descend into split parts
		}
		return true
	})
	return out
}

// containerOf returns the innermost Repetition/Tabular/pair container
// enclosing n, or nil. A half of a split pair reports the pair itself,
// seen through any RoleGroup wrappers (e.g. a BoundaryChange applied to
// one half).
func containerOf(n *graph.Node) *graph.Node {
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if cur.IsSplitPair() {
			return cur
		}
		if cur.Kind == graph.Repetition || cur.Kind == graph.Tabular {
			p := cur.Parent
			for p != nil && p.Kind == graph.Sequence && p.Origin.Role == graph.RoleGroup {
				p = p.Parent
			}
			if p != nil && p.IsSplitPair() {
				return p
			}
			return cur
		}
	}
	return nil
}

// accessors emits the stable application-facing API: Set/Get per user
// field, Enable/Present per optional, Add/Count per repeated container.
// The interface is derived from the ORIGINAL field names, so it does not
// change when the transformation set changes (paper §VI).
func (gen *generator) accessors() error {
	// Containers first.
	containers := map[*graph.Node]bool{}
	gen.g.Walk(func(n *graph.Node) bool {
		if n.IsSplitPair() {
			containers[n] = true
			return false
		}
		if n.Kind == graph.Repetition || n.Kind == graph.Tabular {
			containers[n] = true
			return false
		}
		return true
	})
	var containerList []*graph.Node
	for c := range containers {
		containerList = append(containerList, c)
	}
	sort.Slice(containerList, func(i, j int) bool {
		return gen.ident(containerList[i]) < gen.ident(containerList[j])
	})

	for _, c := range containerList {
		if err := gen.containerAPI(c); err != nil {
			return err
		}
	}

	// Optionals.
	gen.g.Walk(func(n *graph.Node) bool {
		if n.Kind == graph.Optional && containerOf(n) == nil {
			gen.optionalAPI(n)
		}
		return true
	})

	// Scalar fields.
	for _, f := range gen.userFields() {
		if err := gen.fieldAPI(f); err != nil {
			return err
		}
	}
	return nil
}

// navFromRoot renders navigation from m.Root to node n, or an error when
// the path crosses a repeated container. Optional crossings emit
// presence checks into the function body (gen.p) and require err/nil
// returns with the given zero value.
func (gen *generator) navFromRoot(n *graph.Node, zero string) (string, error) {
	path := instancePath(n)
	v := "m.Root"
	for i, step := range path {
		parent := gen.g.Root
		if i > 0 {
			parent = path[i-1]
		}
		switch parent.Kind {
		case graph.Repetition, graph.Tabular:
			return "", fmt.Errorf("path of %q crosses repeated container %q", n.Name, parent.Name)
		case graph.Optional:
			gen.p("\tif !%s.Present {\n\t\treturn %sfmt.Errorf(\"optional %s disabled\")\n\t}\n", v, zero, parent.Origin.Name)
		}
		v += ".C" + gen.ident(step)
	}
	return v, nil
}

func goName(orig string) string {
	var b strings.Builder
	up := true
	for _, c := range orig {
		switch {
		case c == '_' || c == '$':
			up = true
		default:
			if up {
				b.WriteString(strings.ToUpper(string(c)))
				up = false
			} else {
				b.WriteRune(c)
			}
		}
	}
	return b.String()
}

func (gen *generator) optionalAPI(n *graph.Node) {
	name := goName(n.Origin.Name)
	gen.p("// Enable%s instantiates the optional %q subtree.\nfunc (m *Message) Enable%s() error {\n", name, n.Origin.Name, name)
	v, err := gen.navFromRoot(n, "")
	if err != nil {
		gen.p("\treturn fmt.Errorf(\"optional %s is inside a repeated container; use item accessors\")\n}\n\n", n.Origin.Name)
		return
	}
	cid := gen.ident(n.Child())
	gen.p("\tif !%s.Present {\n\t\t%s.Present = true\n\t\t%s.C%s = new%s()\n\t}\n\treturn nil\n}\n\n", v, v, v, cid, cid)

	gen.p("// Present%s reports whether optional %q is instantiated.\nfunc (m *Message) Present%s() (bool, error) {\n", name, n.Origin.Name, name)
	v, err = gen.navFromRoot(n, "false, ")
	if err != nil {
		gen.p("\treturn false, fmt.Errorf(\"optional %s is inside a repeated container\")\n}\n\n", n.Origin.Name)
		return
	}
	gen.p("\treturn %s.Present, nil\n}\n\n", v)
}

// containerAPI emits Add/Count plus an item handle for one container.
func (gen *generator) containerAPI(c *graph.Node) error {
	name := goName(c.Origin.Name)
	if c.IsSplitPair() {
		l := graph.FindRoleHolder(c, graph.RoleSplitLeft)
		r := graph.FindRoleHolder(c, graph.RoleSplitRight)
		lid, rid := gen.ident(l.Child()), gen.ident(r.Child())
		gen.p("// Item%s addresses one logical item of the split container %q.\ntype Item%s struct {\n\tA *N%s\n\tB *N%s\n}\n\n", name, c.Origin.Name, name, lid, rid)
		gen.p("// Add%s appends one item to %q (both halves).\nfunc (m *Message) Add%s() (*Item%s, error) {\n", name, c.Origin.Name, name, name)
		v, err := gen.navFromRoot(c, "nil, ")
		if err != nil {
			return err
		}
		lp, rp := gen.halfPath(c, l), gen.halfPath(c, r)
		gen.p("\ta := new%s()\n\tb := new%s()\n\t%s.%s.Items = append(%s.%s.Items, a)\n\t%s.%s.Items = append(%s.%s.Items, b)\n\treturn &Item%s{A: a, B: b}, nil\n}\n\n",
			lid, rid, v, lp, v, lp, v, rp, v, rp, name)
		gen.p("// Count%s returns the item count of %q.\nfunc (m *Message) Count%s() (int, error) {\n", name, c.Origin.Name, name)
		v, err = gen.navFromRoot(c, "0, ")
		if err != nil {
			return err
		}
		gen.p("\treturn len(%s.%s.Items), nil\n}\n\n", v, lp)
		gen.p("// Item%sAt returns the i-th logical item of %q.\nfunc (m *Message) Item%sAt(i int) (*Item%s, error) {\n", name, c.Origin.Name, name, name)
		v, err = gen.navFromRoot(c, "nil, ")
		if err != nil {
			return err
		}
		gen.p("\tif i < 0 || i >= len(%s.%s.Items) || i >= len(%s.%s.Items) {\n\t\treturn nil, fmt.Errorf(\"%s: index %%d out of range\", i)\n\t}\n", v, lp, v, rp, c.Origin.Name)
		gen.p("\treturn &Item%s{A: %s.%s.Items[i], B: %s.%s.Items[i]}, nil\n}\n\n", name, v, lp, v, rp)
		return nil
	}
	cid := gen.ident(c.Child())
	gen.p("// Item%s addresses one item of container %q.\ntype Item%s struct {\n\tA *N%s\n}\n\n", name, c.Origin.Name, name, cid)
	gen.p("// Add%s appends one item to %q.\nfunc (m *Message) Add%s() (*Item%s, error) {\n", name, c.Origin.Name, name, name)
	v, err := gen.navFromRoot(c, "nil, ")
	if err != nil {
		return err
	}
	gen.p("\tit := new%s()\n\t%s.Items = append(%s.Items, it)\n\treturn &Item%s{A: it}, nil\n}\n\n", cid, v, v, name)
	gen.p("// Count%s returns the item count of %q.\nfunc (m *Message) Count%s() (int, error) {\n", name, c.Origin.Name, name)
	v, err = gen.navFromRoot(c, "0, ")
	if err != nil {
		return err
	}
	gen.p("\treturn len(%s.Items), nil\n}\n\n", v)
	gen.p("// Item%sAt returns the i-th item of %q.\nfunc (m *Message) Item%sAt(i int) (*Item%s, error) {\n", name, c.Origin.Name, name, name)
	v, err = gen.navFromRoot(c, "nil, ")
	if err != nil {
		return err
	}
	gen.p("\tif i < 0 || i >= len(%s.Items) {\n\t\treturn nil, fmt.Errorf(\"%s: index %%d out of range\", i)\n\t}\n\treturn &Item%s{A: %s.Items[i]}, nil\n}\n\n", v, c.Origin.Name, name, v)
	return nil
}

// fieldAPI emits Set<Field>/Get<Field> for one user field, either on the
// Message (scalar) or on the enclosing container's item handle.
func (gen *generator) fieldAPI(f *graph.Node) error {
	name := goName(f.Origin.Name)
	fid := gen.ident(f)
	typ := "uint64"
	if isBytesNode(f) {
		typ = "[]byte"
	}
	cont := containerOf(f)
	if cont == nil {
		gen.p("// Set%s assigns field %q.\nfunc (m *Message) Set%s(v %s) error {\n", name, f.Origin.Name, name, typ)
		v, err := gen.navFromRoot(f, "")
		if err != nil {
			return err
		}
		gen.p("\treturn setval%s(%s, v)\n}\n\n", fid, v)
		zero := "0, "
		if typ == "[]byte" {
			zero = "nil, "
		}
		gen.p("// Get%s reads field %q.\nfunc (m *Message) Get%s() (%s, error) {\n", name, f.Origin.Name, name, typ)
		v, err = gen.navFromRoot(f, zero)
		if err != nil {
			return err
		}
		gen.p("\treturn getval%s(%s)\n}\n\n", fid, v)
		return nil
	}
	// Field inside a container: accessor on the item handle.
	cname := goName(cont.Origin.Name)
	itemVar, err := gen.itemNav(cont, f)
	if err != nil {
		return err
	}
	gen.p("// Set%s assigns field %q within one %q item.\nfunc (it *Item%s) Set%s(v %s) error {\n\treturn setval%s(%s, v)\n}\n\n",
		name, f.Origin.Name, cont.Origin.Name, cname, name, typ, fid, itemVar)
	gen.p("// Get%s reads field %q within one %q item.\nfunc (it *Item%s) Get%s() (%s, error) {\n\treturn getval%s(%s)\n}\n\n",
		name, f.Origin.Name, cont.Origin.Name, cname, name, typ, fid, itemVar)
	return nil
}

// itemNav renders navigation from an item handle to field f inside
// container cont.
func (gen *generator) itemNav(cont *graph.Node, f *graph.Node) (string, error) {
	// Determine which half (for pairs) and the element root.
	var elemRoot *graph.Node
	base := "it.A"
	if cont.IsSplitPair() {
		l := graph.FindRoleHolder(cont, graph.RoleSplitLeft)
		r := graph.FindRoleHolder(cont, graph.RoleSplitRight)
		if isUnder(f, l) {
			elemRoot = l.Child()
			base = "it.A"
		} else if isUnder(f, r) {
			elemRoot = r.Child()
			base = "it.B"
		} else {
			return "", fmt.Errorf("field %q not under either half of %q", f.Name, cont.Name)
		}
	} else {
		elemRoot = cont.Child()
	}
	if f == elemRoot {
		return base, nil
	}
	var segs []string
	for cur := f; cur != elemRoot; cur = cur.Parent {
		if cur.Parent == nil {
			return "", fmt.Errorf("field %q not under element %q", f.Name, elemRoot.Name)
		}
		if cur.Parent.Kind == graph.Repetition || cur.Parent.Kind == graph.Tabular {
			return "", fmt.Errorf("field %q nested in repeated container below %q", f.Name, cont.Name)
		}
		segs = append(segs, "C"+gen.ident(cur))
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return base + "." + strings.Join(segs, "."), nil
}

func isUnder(n, anc *graph.Node) bool {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur == anc {
			return true
		}
	}
	return false
}
