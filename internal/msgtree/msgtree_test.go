package msgtree

import (
	"strings"
	"testing"
	"testing/quick"

	"protoobf/internal/graph"
	"protoobf/internal/rng"
	"protoobf/internal/spec"
)

const demoSpec = `
protocol demo;
root seq msg end {
    bytes magic fixed 2;
    uint  kind 1;
    uint  plen 2;
    seq payload length(plen) {
        bytes name delim ";" min 1;
        uint  cnt 1;
        tabular items count(cnt) { uint item 2; }
        optional maybe when kind == 7 { bytes extra delim "|"; }
    }
    bytes body end;
}
`

func demoGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := spec.Parse(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSetGetRoundTrip(t *testing.T) {
	m := New(demoGraph(t), rng.New(1))
	s := m.Scope()
	if err := s.SetUint("kind", 5); err != nil {
		t.Fatal(err)
	}
	if v, err := s.GetUint("kind"); err != nil || v != 5 {
		t.Errorf("kind = %d, %v", v, err)
	}
	if err := s.SetBytes("magic", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if b, err := s.GetBytes("magic"); err != nil || len(b) != 2 {
		t.Errorf("magic = %x, %v", b, err)
	}
	if err := s.SetString("name", "zed"); err != nil {
		t.Fatal(err)
	}
	if b, _ := s.GetBytes("name"); string(b) != "zed" {
		t.Errorf("name = %q", b)
	}
}

func TestSetErrors(t *testing.T) {
	m := New(demoGraph(t), rng.New(1))
	s := m.Scope()
	if err := s.SetUint("ghost", 1); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("unknown field: %v", err)
	}
	if err := s.SetUint("kind", 256); err == nil {
		t.Error("overflow accepted on 1-byte field")
	}
	if err := s.SetUint("plen", 1); err == nil || !strings.Contains(err.Error(), "computed by the serializer") {
		t.Errorf("autofill write: %v", err)
	}
	if err := s.SetBytes("magic", []byte{1, 2, 3}); err == nil {
		t.Error("wrong fixed size accepted")
	}
	if err := s.SetString("name", "a;b"); err == nil {
		t.Error("value containing its delimiter accepted")
	}
	if err := s.SetString("name", ""); err == nil {
		t.Error("value below MinLen accepted")
	}
	if err := s.SetBytes("kind", []byte{1}); err == nil {
		t.Error("bytes written to integer field")
	}
	if err := s.SetUint("magic", 1); err == nil {
		t.Error("integer written to bytes field")
	}
	// Field inside a disabled optional.
	if err := s.SetString("extra", "x"); err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Errorf("disabled optional: %v", err)
	}
	// Field inside items must be set through item scopes.
	if err := s.SetUint("item", 1); err == nil {
		t.Error("container-internal field set from outer scope")
	}
}

func TestOptionalLifecycle(t *testing.T) {
	m := New(demoGraph(t), rng.New(1))
	s := m.Scope()
	if p, err := s.Present("maybe"); err != nil || p {
		t.Errorf("Present = %v, %v", p, err)
	}
	sc, err := s.Enable("maybe")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetString("extra", "bonus"); err != nil {
		t.Fatal(err)
	}
	// After Enable, the outer scope reaches inside.
	if b, err := s.GetBytes("extra"); err != nil || string(b) != "bonus" {
		t.Errorf("extra = %q, %v", b, err)
	}
	if p, _ := s.Present("maybe"); !p {
		t.Error("Present false after Enable")
	}
	if err := s.Disable("maybe"); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Present("maybe"); p {
		t.Error("Present true after Disable")
	}
	// Enable on a non-optional errors.
	if _, err := s.Enable("magic"); err == nil {
		t.Error("Enable on terminal accepted")
	}
	if _, err := s.Enable("items"); err == nil {
		t.Error("Enable on tabular accepted")
	}
}

func TestItemsAndCount(t *testing.T) {
	m := New(demoGraph(t), rng.New(1))
	s := m.Scope()
	for i := 0; i < 3; i++ {
		it, err := s.Add("items")
		if err != nil {
			t.Fatal(err)
		}
		if err := it.SetUint("item", uint64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Count("items"); err != nil || n != 3 {
		t.Errorf("Count = %d, %v", n, err)
	}
	items, err := s.Items("items")
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if v, _ := it.GetUint("item"); v != uint64(10+i) {
			t.Errorf("item[%d] = %d", i, v)
		}
	}
	if _, err := s.Add("kind"); err == nil {
		t.Error("Add on terminal accepted")
	}
	if _, err := s.Items("payload"); err == nil {
		t.Error("Items on plain sequence accepted")
	}
}

// TestValuePipelineProperty: for arbitrary ops pipelines on a 2-byte
// field, SetNodeValue followed by GetNodeValue is the identity.
func TestValuePipelineProperty(t *testing.T) {
	f := func(raw uint16, addK, xorK uint64) bool {
		g := demoGraph(t)
		n := g.Find("plen")
		n.Ops = []graph.ValueOp{
			{Kind: graph.OpAdd, K: addK},
			{Kind: graph.OpXor, K: xorK},
		}
		m := New(g, rng.New(int64(raw)))
		iv, err := m.Scope().locate("plen")
		if err != nil {
			return false
		}
		if err := m.SetNodeValue(iv, graph.UintVal(uint64(raw))); err != nil {
			return false
		}
		v, err := m.GetNodeValue(iv)
		return err == nil && v.U == uint64(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotContent(t *testing.T) {
	m := New(demoGraph(t), rng.New(1))
	s := m.Scope()
	for _, step := range []error{
		s.SetBytes("magic", []byte{9, 9}),
		s.SetUint("kind", 7),
		s.SetString("name", "nn"),
		s.SetString("body", "B"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	sc, err := s.Enable("maybe")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetString("extra", "e"); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{
		"kind":          "7",
		"name":          `"nn"`,
		"maybe.present": "true",
		"extra":         `"e"`,
		"items.count":   "0",
	} {
		if snap[k] != want {
			t.Errorf("snapshot[%s] = %q, want %q\nfull:\n%s", k, snap[k], want, FormatSnapshot(snap))
		}
	}
	if _, ok := snap["plen"]; ok {
		t.Error("auto-filled field leaked into the snapshot")
	}
	// Unset user field -> snapshot errors.
	m2 := New(demoGraph(t), rng.New(1))
	if _, err := m2.Snapshot(); err == nil {
		t.Error("snapshot of empty message should fail")
	}
}

func TestSnapshotsEqualHelper(t *testing.T) {
	a := map[string]string{"x": "1"}
	b := map[string]string{"x": "1"}
	if d := SnapshotsEqual(a, b); d != "" {
		t.Errorf("equal snapshots reported: %s", d)
	}
	b["x"] = "2"
	if d := SnapshotsEqual(a, b); !strings.Contains(d, `"x"`) {
		t.Errorf("diff = %q", d)
	}
	delete(b, "x")
	if d := SnapshotsEqual(a, b); d == "" {
		t.Error("missing key not reported")
	}
	if d := SnapshotsEqual(b, a); d == "" {
		t.Error("extra key not reported")
	}
}

func TestFindRefScoping(t *testing.T) {
	// A reference inside a repetition item must resolve within the item,
	// not in a sibling item.
	src := `
protocol scoped;
root seq m end {
    repeat rows until "$$" {
        seq row {
            bytes rk delim "=" min 1;
            uint  rl 4;
            bytes rv length(rl);
        }
    }
    bytes tail end;
}`
	g, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(g, rng.New(1))
	s := m.Scope()
	row1, err := s.Add("rows")
	if err != nil {
		t.Fatal(err)
	}
	if err := row1.SetString("rk", "a"); err != nil {
		t.Fatal(err)
	}
	if err := row1.SetString("rv", "longvalue"); err != nil {
		t.Fatal(err)
	}
	row2, err := s.Add("rows")
	if err != nil {
		t.Fatal(err)
	}
	if err := row2.SetString("rk", "b"); err != nil {
		t.Fatal(err)
	}
	if err := row2.SetString("rv", "x"); err != nil {
		t.Fatal(err)
	}
	// The plan resolves rv's reference in its own row: the row's scope
	// sits at depth 2 (message, rows, row), so from row 2's open
	// ancestors it reaches row 2's rl, not row 1's.
	rows, _ := s.Items("rows")
	root := m.Tree()
	reps := root.Kids[0]
	for i, row := range rows {
		rv, err := row.locate("rv")
		if err != nil {
			t.Fatal(err)
		}
		want, err := row.locate("rl")
		if err != nil {
			t.Fatal(err)
		}
		if d := g.Plan().Ref(rv.Node).Depth; d != 2 {
			t.Fatalf("rv's reference resolves at depth %d, want 2", d)
		}
		ref := Ref(g.Plan(), []*Value{root, reps, reps.Kids[i]}, rv.Node)
		if ref == nil {
			t.Fatalf("row %d: rl not found", i+1)
		}
		if ref != want {
			t.Errorf("row %d: the reference crossed into a sibling item", i+1)
		}
	}
}
