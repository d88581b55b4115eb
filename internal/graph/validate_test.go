package graph

import (
	"fmt"
	"strings"
	"testing"
)

// expectInvalid asserts that mutate breaks the sample graph in a way the
// validator reports, with a message containing want.
func expectInvalid(t *testing.T, want string, mutate func(g *Graph)) {
	t.Helper()
	g := sampleGraph(t)
	mutate(g)
	err := g.Validate()
	if err == nil {
		t.Fatalf("graph accepted, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestValidateDuplicateName(t *testing.T) {
	expectInvalid(t, "duplicate name", func(g *Graph) {
		g.Find("hval").Name = "hname"
	})
}

// TestValidateNameThreeTimes checks that each repeated occurrence of a
// name is reported against the occurrence just before it.
func TestValidateNameThreeTimes(t *testing.T) {
	g := sampleGraph(t)
	g.Find("extra").Name = "name"
	g.Find("hval").Name = "name"
	err := g.Validate()
	if err == nil {
		t.Fatal("graph with a name used three times accepted")
	}
	for _, want := range []string{
		`node "name": duplicate name (also "msg/payload/name")`,
		`node "name": duplicate name (also "msg/payload/maybe/name")`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

func TestValidateArity(t *testing.T) {
	expectInvalid(t, "terminal with", func(g *Graph) {
		g.Find("kind").Children = []*Node{term("sub", EncUint, fixed(1))}
	})
	expectInvalid(t, "must have exactly one child", func(g *Graph) {
		items := g.Find("items")
		items.Children = append(items.Children, term("extra2", EncUint, fixed(1)))
	})
	expectInvalid(t, "sequence without children", func(g *Graph) {
		g.Find("hdr").Children = nil
	})
}

func TestValidateBoundaryRules(t *testing.T) {
	expectInvalid(t, "fixed boundary with size 0", func(g *Graph) {
		g.Find("magic").Boundary.Size = 0
	})
	expectInvalid(t, "empty delimiter", func(g *Graph) {
		g.Find("name").Boundary.Delim = nil
	})
	expectInvalid(t, "not allowed on", func(g *Graph) {
		g.Find("payload").Boundary = fixed(4)
	})
	expectInvalid(t, "not allowed on", func(g *Graph) {
		g.Find("items").Boundary = Boundary{Kind: End}
	})
	expectInvalid(t, "without reference", func(g *Graph) {
		g.Find("payload").Boundary = Boundary{Kind: Length}
	})
}

func TestValidateTerminalRules(t *testing.T) {
	expectInvalid(t, "uint terminal requires a fixed boundary", func(g *Graph) {
		g.Find("kind").Boundary = delim(";")
	})
	expectInvalid(t, "width 3 not in", func(g *Graph) {
		g.Find("plen").Boundary.Size = 3
	})
	expectInvalid(t, "without encoding", func(g *Graph) {
		g.Find("magic").Enc = 0
	})
	expectInvalid(t, "integer op", func(g *Graph) {
		g.Find("magic").Ops = []ValueOp{{Kind: OpAdd, K: 3}}
	})
	expectInvalid(t, "empty key", func(g *Graph) {
		g.Find("name").Ops = []ValueOp{{Kind: OpByteXor}}
	})
}

func TestValidateRefRules(t *testing.T) {
	expectInvalid(t, "does not resolve", func(g *Graph) {
		g.Find("payload").Boundary.Ref = "ghost"
	})
	expectInvalid(t, "is not an integer field", func(g *Graph) {
		g.Find("payload").Boundary.Ref = "magic"
	})
	expectInvalid(t, "is not auto-filled", func(g *Graph) {
		g.Find("plen").AutoFill = false
	})
	// A length field moved after its dependent must be rejected.
	expectInvalid(t, "parses at or after", func(g *Graph) {
		root := g.Root
		// move plen (index 2) after payload (index 3)
		root.Children[2], root.Children[3] = root.Children[3], root.Children[2]
		g.Rebuild()
	})
}

// TestValidateReferenceOrder covers the three reference-order failures:
// a length, counter or presence reference whose contributing leaf parses
// at or after the dependent node. Each message names the leaf.
func TestValidateReferenceOrder(t *testing.T) {
	expectInvalid(t, `length reference "plen": leaf "plen" parses at or after the dependent node`, func(g *Graph) {
		root := g.Root
		root.Children[2], root.Children[3] = root.Children[3], root.Children[2]
	})
	expectInvalid(t, `counter reference "cnt": leaf "cnt" parses at or after the dependent node`, func(g *Graph) {
		payload := g.Find("payload")
		payload.Children[1], payload.Children[2] = payload.Children[2], payload.Children[1]
	})
	expectInvalid(t, `presence reference "kind": leaf "kind" parses at or after the optional node`, func(g *Graph) {
		root, payload := g.Root, g.Find("payload")
		kind := root.Children[1]
		root.Children = append(root.Children[:1:1], root.Children[2:]...)
		payload.Children = append(payload.Children, kind)
	})
	// A split length field whose first half parses before the dependent
	// and whose second half sits inside it: the error names the second
	// half, the first offending leaf, not the first leaf of the field.
	expectInvalid(t, `length reference "plen": leaf "plen_b" parses at or after`, func(g *Graph) {
		plen := g.Find("plen")
		lo := term("plen_a", EncUint, fixed(2))
		lo.Origin = Origin{Name: "plen", Role: RoleSplitLeft}
		hi := term("plen_b", EncUint, fixed(2))
		hi.Origin = Origin{Name: "plen", Role: RoleSplitRight}
		inner := &Node{Name: "inner", Kind: Sequence, Boundary: length("plen"), Children: []*Node{hi}}
		comb := &Node{Name: "plen_c", Kind: Sequence, Boundary: Boundary{Kind: Delegated},
			Enc: EncUint, AutoFill: true, Origin: plen.Origin,
			Comb: &Combine{Kind: CombAdd, Width: 2}, Children: []*Node{lo, inner}}
		if err := g.Replace(plen, comb); err != nil {
			t.Fatal(err)
		}
	})
}

func TestValidateCondRules(t *testing.T) {
	expectInvalid(t, "presence reference \"ghost\"", func(g *Graph) {
		g.Find("maybe").Cond.Ref = "ghost"
	})
	expectInvalid(t, "compares an integer but", func(g *Graph) {
		g.Find("maybe").Cond.Ref = "magic"
	})
	expectInvalid(t, "is auto-filled", func(g *Graph) {
		g.Find("maybe").Cond.Ref = "plen"
	})
	expectInvalid(t, "compares bytes", func(g *Graph) {
		c := &g.Find("maybe").Cond
		c.IsBytes = true
		c.BytesVal = []byte("x")
	})
}

func TestValidateEndExtent(t *testing.T) {
	// An End-bounded terminal that is not last in its sequence.
	expectInvalid(t, "not last in sequence", func(g *Graph) {
		root := g.Root
		// move body (last) before hdrs
		n := len(root.Children)
		root.Children[n-1], root.Children[n-2] = root.Children[n-2], root.Children[n-1]
		g.Rebuild()
	})
	// An End-bounded node inside a repetition would eat every item.
	expectInvalid(t, "would consume all items", func(g *Graph) {
		g.Find("hval").Boundary = Boundary{Kind: End}
		// keep it last in hdr: drop hname
		hdr := g.Find("hdr")
		hdr.Children = hdr.Children[1:]
		g.Rebuild()
	})
	// An End-bounded node directly inside a delimited sequence.
	expectInvalid(t, "inside delimited region", func(g *Graph) {
		s := seq("ds", term("v", EncBytes, Boundary{Kind: End}))
		s.Boundary = delim("$")
		root := g.Root
		root.Children = append(root.Children[:5:5], s)
		// body was End and last; now ds is last, and v is End inside ds.
		g.Rebuild()
	})
}

func TestValidateReversedExtent(t *testing.T) {
	// Reversing a delimited terminal has no computable extent.
	expectInvalid(t, "no computable extent", func(g *Graph) {
		g.Find("name").Reversed = true
	})
	// Reversing a fixed terminal is fine.
	g := sampleGraph(t)
	g.Find("magic").Reversed = true
	if err := g.Validate(); err != nil {
		t.Errorf("reversed fixed terminal rejected: %v", err)
	}
	// Reversing a Length-bounded sequence is fine.
	g = sampleGraph(t)
	g.Find("payload").Reversed = true
	if err := g.Validate(); err != nil {
		t.Errorf("reversed length-bounded sequence rejected: %v", err)
	}
	// Reversing the End-bounded final terminal is fine (region = message).
	g = sampleGraph(t)
	g.Find("body").Reversed = true
	if err := g.Validate(); err != nil {
		t.Errorf("reversed end terminal rejected: %v", err)
	}
}

func TestValidateRepPrefixSafety(t *testing.T) {
	// Pad at item start of a delimited repetition.
	expectInvalid(t, "starts with pad", func(g *Graph) {
		hdr := g.Find("hdr")
		pad := term("pad1", EncBytes, fixed(2))
		pad.Origin = Origin{Role: RolePad}
		hdr.Children = append([]*Node{pad}, hdr.Children...)
		g.Rebuild()
	})
	// Integer field at item start.
	expectInvalid(t, "starts with integer field", func(g *Graph) {
		hdr := g.Find("hdr")
		hdr.Children = append([]*Node{term("n1", EncUint, fixed(2))}, hdr.Children...)
		g.Rebuild()
	})
	// Transformed field at item start.
	expectInvalid(t, "starts with transformed field", func(g *Graph) {
		g.Find("hname").Ops = []ValueOp{{Kind: OpByteXor, KB: []byte{1}}}
	})
	// Reversed region at item start.
	expectInvalid(t, "reversed region", func(g *Graph) {
		hdr := g.Find("hdr")
		f := term("f1", EncBytes, fixed(2))
		f.Reversed = true
		hdr.Children = append([]*Node{f}, hdr.Children...)
		g.Rebuild()
	})
	// Optional subtree at item start.
	expectInvalid(t, "starts with optional subtree", func(g *Graph) {
		hdr := g.Find("hdr")
		opt := &Node{Name: "o1", Kind: Optional, Boundary: Boundary{Kind: Delegated},
			Cond:     Cond{Ref: "kind", Op: CondEq, UintVal: 1},
			Children: []*Node{term("ov", EncBytes, fixed(1))}}
		hdr.Children = append([]*Node{opt}, hdr.Children...)
		g.Rebuild()
	})
}

func TestValidateCombRules(t *testing.T) {
	expectInvalid(t, "two-child sequence", func(g *Graph) {
		g.Find("payload").Comb = &Combine{Kind: CombAdd, Width: 2}
	})
	expectInvalid(t, "combine width", func(g *Graph) {
		s := g.Find("hdr")
		s.Comb = &Combine{Kind: CombAdd, Width: 0}
	})
	expectInvalid(t, "cat split offset", func(g *Graph) {
		s := g.Find("hdr")
		s.Comb = &Combine{Kind: CombCat}
	})
}

func TestValidateAcceptsSample(t *testing.T) {
	g := sampleGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateWarmAllocs pins Validate's pooled scratch: re-validating
// a graph whose shape has been validated before allocates nothing.
func TestValidateWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	g := wideGraph(t, 32)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.Validate() }); n != 0 {
		t.Fatalf("warm Validate allocates %.0f times, want 0", n)
	}
}

// wideGraph returns a valid graph of k length-prefixed records, each
// holding a delimited name, a counted table and an optional guarded by
// a field of the record: 8k+2 nodes with 3k references to check.
func wideGraph(t testing.TB, k int) *Graph {
	t.Helper()
	var kids []*Node
	for i := 0; i < k; i++ {
		name := func(s string) string { return fmt.Sprintf("%s%d", s, i) }
		l := term(name("len"), EncUint, fixed(4))
		l.AutoFill = true
		c := term(name("cnt"), EncUint, fixed(1))
		c.AutoFill = true
		kids = append(kids, l, &Node{Name: name("rec"), Kind: Sequence, Boundary: length(name("len")), Children: []*Node{
			term(name("kind"), EncUint, fixed(1)),
			c,
			&Node{Name: name("items"), Kind: Tabular, Boundary: Boundary{Kind: Counter, Ref: name("cnt")},
				Children: []*Node{term(name("item"), EncUint, fixed(2))}},
			&Node{Name: name("opt"), Kind: Optional, Boundary: Boundary{Kind: Delegated},
				Cond:     Cond{Ref: name("kind"), Op: CondEq, UintVal: 1},
				Children: []*Node{term(name("extra"), EncBytes, delim(";"))}},
		}})
	}
	root := seq("msg", append(kids, term("tail", EncBytes, Boundary{Kind: End}))...)
	root.Boundary = Boundary{Kind: End}
	g := New("wide", root)
	if err := g.Validate(); err != nil {
		t.Fatalf("wide graph does not validate: %v", err)
	}
	return g
}

func BenchmarkValidate(b *testing.B) {
	for _, k := range []int{1, 32} {
		g := wideGraph(b, k)
		b.Run(fmt.Sprintf("nodes=%d", g.NodeCount()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := g.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestValidationErrorFormat(t *testing.T) {
	e := &ValidationError{Node: "x", Msg: "boom"}
	if !strings.Contains(e.Error(), `node "x"`) {
		t.Errorf("Error() = %q", e.Error())
	}
	e2 := &ValidationError{Msg: "top"}
	if e2.Error() != "graph: top" {
		t.Errorf("Error() = %q", e2.Error())
	}
}
