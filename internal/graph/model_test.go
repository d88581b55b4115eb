package graph

import (
	"strings"
	"testing"
)

// term builds a terminal node for tests.
func term(name string, enc Enc, b Boundary) *Node {
	return &Node{Name: name, Kind: Terminal, Enc: enc, Boundary: b}
}

func seq(name string, children ...*Node) *Node {
	return &Node{Name: name, Kind: Sequence, Boundary: Boundary{Kind: Delegated}, Children: children}
}

func fixed(n int) Boundary       { return Boundary{Kind: Fixed, Size: n} }
func delim(d string) Boundary    { return Boundary{Kind: Delimited, Delim: []byte(d)} }
func length(ref string) Boundary { return Boundary{Kind: Length, Ref: ref} }

// sampleGraph returns a small but representative graph exercising every
// node kind: fixed/uint terminals, a length reference, an optional guarded
// by a field value, a tabular with counter, and a delimited repetition.
func sampleGraph(t testing.TB) *Graph {
	t.Helper()
	lenField := term("plen", EncUint, fixed(2))
	lenField.AutoFill = true
	cnt := term("cnt", EncUint, fixed(1))
	cnt.AutoFill = true
	root := seq("msg",
		term("magic", EncBytes, fixed(2)),
		term("kind", EncUint, fixed(1)),
		lenField,
		&Node{Name: "payload", Kind: Sequence, Boundary: length("plen"), Children: []*Node{
			term("name", EncBytes, delim(";")),
			cnt,
			&Node{Name: "items", Kind: Tabular, Boundary: Boundary{Kind: Counter, Ref: "cnt"}, Children: []*Node{
				term("item", EncUint, fixed(2)),
			}},
			&Node{Name: "maybe", Kind: Optional, Boundary: Boundary{Kind: Delegated},
				Cond: Cond{Ref: "kind", Op: CondEq, UintVal: 7},
				Children: []*Node{
					term("extra", EncBytes, delim("|")),
				}},
		}},
		&Node{Name: "hdrs", Kind: Repetition, Boundary: delim("\r\n"), Children: []*Node{
			seq("hdr",
				func() *Node { n := term("hname", EncBytes, delim(": ")); n.MinLen = 1; return n }(),
				term("hval", EncBytes, delim("\r\n")),
			),
		}},
		term("body", EncBytes, Boundary{Kind: End}),
	)
	root.Boundary = Boundary{Kind: End}
	g := New("sample", root)
	if err := g.Validate(); err != nil {
		t.Fatalf("sample graph does not validate: %v", err)
	}
	return g
}

func TestSampleGraphShape(t *testing.T) {
	g := sampleGraph(t)
	if got := g.NodeCount(); got != 16 {
		t.Errorf("NodeCount = %d, want 16", got)
	}
	if g.Find("items") == nil || g.Find("nope") != nil {
		t.Error("Find misbehaves")
	}
	n := g.Find("hname")
	if got := n.Path(); got != "msg/hdrs/hdr/hname" {
		t.Errorf("Path = %q", got)
	}
	if g.FindOriginal("plen") == nil {
		t.Error("FindOriginal(plen) = nil")
	}
	auto := g.AutoFillNames()
	if !auto["plen"] || !auto["cnt"] || auto["kind"] {
		t.Errorf("AutoFillNames = %v", auto)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := sampleGraph(t)
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone does not validate: %v", err)
	}
	c.Find("kind").Boundary.Size = 4
	c.Find("name").Boundary.Delim[0] = '!'
	if g.Find("kind").Boundary.Size != 1 {
		t.Error("clone shares boundary struct")
	}
	if g.Find("name").Boundary.Delim[0] != ';' {
		t.Error("clone shares delimiter bytes")
	}
	if c.NodeCount() != g.NodeCount() {
		t.Error("clone has different node count")
	}
}

func TestReplaceNode(t *testing.T) {
	g := sampleGraph(t)
	old := g.Find("kind")
	repl := seq("kindwrap", term("k1", EncUint, fixed(1)))
	if err := g.Replace(old, repl); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if g.Find("kind") != nil {
		t.Error("old node still present")
	}
	if got := g.Find("k1").Parent.Name; got != "kindwrap" {
		t.Errorf("parent of k1 = %q", got)
	}
	// Replacing the root works too.
	root2 := seq("newroot", term("x", EncBytes, Boundary{Kind: End}))
	root2.Boundary = Boundary{Kind: End}
	if err := g.Replace(g.Root, root2); err != nil {
		t.Fatalf("Replace root: %v", err)
	}
	if g.Root.Name != "newroot" {
		t.Errorf("root = %q", g.Root.Name)
	}
}

func TestFreshNameUnique(t *testing.T) {
	g := sampleGraph(t)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		n := g.FreshName("kind")
		if seen[n] {
			t.Fatalf("FreshName returned duplicate %q", n)
		}
		if g.Find(n) != nil {
			t.Fatalf("FreshName returned existing name %q", n)
		}
		seen[n] = true
	}
}

func TestStaticSize(t *testing.T) {
	g := sampleGraph(t)
	cases := []struct {
		node string
		size int
		ok   bool
	}{
		{"magic", 2, true},
		{"kind", 1, true},
		{"plen", 2, true},
		{"name", 0, false},  // delimited
		{"items", 0, false}, // count varies
		{"payload", 0, false},
		{"item", 2, true},
	}
	for _, c := range cases {
		got, ok := StaticSize(g.Find(c.node))
		if ok != c.ok || (ok && got != c.size) {
			t.Errorf("StaticSize(%s) = %d,%v want %d,%v", c.node, got, ok, c.size, c.ok)
		}
	}
	// A sequence of fixed terminals has a static size including its
	// trailing delimiter.
	s := seq("s", term("a", EncUint, fixed(2)), term("b", EncBytes, fixed(3)))
	s.Boundary = delim("##")
	if got, ok := StaticSize(s); !ok || got != 7 {
		t.Errorf("StaticSize(seq) = %d,%v want 7,true", got, ok)
	}
}

func TestLeavesOrder(t *testing.T) {
	g := sampleGraph(t)
	var names []string
	for _, l := range Leaves(g.Root) {
		names = append(names, l.Name)
	}
	want := "magic kind plen name cnt item extra hname hval body"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("leaves = %q, want %q", got, want)
	}
	if Leaves(g.Find("payload"))[0].Name != "name" {
		t.Error("first leaf of payload wrong")
	}
}

func TestContributingLeaves(t *testing.T) {
	g := sampleGraph(t)
	// The contributing leaves of a name are the leaves under the node
	// carrying its value.
	ls := Leaves(g.FindOriginal("plen"))
	if len(ls) != 1 || ls[0].Name != "plen" {
		t.Fatalf("contributing leaves of plen = %v", ls)
	}
	// After a split, the combine sequence holds provenance and both
	// halves contribute.
	old := g.Find("plen")
	comb := &Node{
		Name: "plen$c", Kind: Sequence, Boundary: Boundary{Kind: Delegated},
		Origin: Origin{Name: "plen", Role: RoleWhole},
		Enc:    EncUint, AutoFill: true,
		Comb: &Combine{Kind: CombAdd, Width: 2},
		Children: []*Node{
			{Name: "plen$1", Kind: Terminal, Enc: EncUint, Boundary: fixed(2), Origin: Origin{Name: "plen", Role: RoleSplitLeft}},
			{Name: "plen$2", Kind: Terminal, Enc: EncUint, Boundary: fixed(2), Origin: Origin{Name: "plen", Role: RoleSplitRight}},
		},
	}
	if err := g.Replace(old, comb); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph after split invalid: %v", err)
	}
	ls = Leaves(g.FindOriginal("plen"))
	if len(ls) != 2 {
		t.Fatalf("contributing leaves of plen after split = %d leaves", len(ls))
	}
}

func TestInsideDelimitedRegion(t *testing.T) {
	g := sampleGraph(t)
	if !InsideDelimitedRegion(g.Find("hname")) {
		t.Error("hname should be inside a delimited region (hdrs repetition)")
	}
	if InsideDelimitedRegion(g.Find("kind")) {
		t.Error("kind should not be inside a delimited region")
	}
}

func TestDotOutput(t *testing.T) {
	g := sampleGraph(t)
	dot := g.Dot()
	for _, want := range []string{"digraph", `"hname"`, "style=dashed", `"items" -> "item"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q", want)
		}
	}
}

func TestKindAndBoundaryStrings(t *testing.T) {
	if Terminal.String() != "Te" || Sequence.String() != "S" || Tabular.String() != "Ta" ||
		Optional.String() != "O" || Repetition.String() != "R" {
		t.Error("Kind notation mismatch with the paper")
	}
	if fixed(3).String() != "F(3)" || length("x").String() != "L(x)" {
		t.Error("Boundary notation mismatch")
	}
	if (Boundary{Kind: Delegated}).String() != "Dgt" || (Boundary{Kind: End}).String() != "E" {
		t.Error("Boundary notation mismatch")
	}
}
