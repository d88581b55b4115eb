package artifact_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoobf/internal/artifact"
	"protoobf/internal/core"
	"protoobf/internal/graph"
)

const testSpec = `
protocol telemetry;
root seq msg end {
    uint  device 2;
    uint  seqno 4;
    uint  blen 2;
    seq body length(blen) {
        bytes status delim ";" min 1;
    }
    bytes sig end;
}
`

func compileTest(t testing.TB, seed int64) *core.Protocol {
	t.Helper()
	p, err := core.Compile(testSpec, core.ObfuscationOptions{PerNode: 3, Seed: seed})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func testArtifact(t testing.TB, seed int64, epoch uint64) *artifact.Artifact {
	t.Helper()
	p := compileTest(t, seed)
	return &artifact.Artifact{
		Key: artifact.Key{
			SpecDigest: artifact.SpecDigest(testSpec, 3, nil, nil),
			Family:     seed,
			Epoch:      epoch,
		},
		PerNode: 3,
		Applied: len(p.Applied),
		Graph:   p.Graph,
	}
}

// sameNode compares every serialized Node field, recursively.
func sameNode(t *testing.T, path string, a, b *graph.Node) {
	t.Helper()
	if a.Name != b.Name || a.Kind != b.Kind {
		t.Fatalf("%s: name/kind %q/%v != %q/%v", path, a.Name, a.Kind, b.Name, b.Kind)
	}
	if a.Boundary.Kind != b.Boundary.Kind || a.Boundary.Size != b.Boundary.Size ||
		!bytes.Equal(a.Boundary.Delim, b.Boundary.Delim) || a.Boundary.Ref != b.Boundary.Ref {
		t.Fatalf("%s: boundary %+v != %+v", path, a.Boundary, b.Boundary)
	}
	if a.Enc != b.Enc || a.MinLen != b.MinLen || a.Reversed != b.Reversed || a.AutoFill != b.AutoFill {
		t.Fatalf("%s: enc/minlen/flags differ", path)
	}
	if a.Cond.Ref != b.Cond.Ref || a.Cond.Op != b.Cond.Op || a.Cond.UintVal != b.Cond.UintVal ||
		!bytes.Equal(a.Cond.BytesVal, b.Cond.BytesVal) || a.Cond.IsBytes != b.Cond.IsBytes {
		t.Fatalf("%s: cond %+v != %+v", path, a.Cond, b.Cond)
	}
	if a.Origin != b.Origin {
		t.Fatalf("%s: origin %+v != %+v", path, a.Origin, b.Origin)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("%s: %d ops != %d ops", path, len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i].Kind != b.Ops[i].Kind || a.Ops[i].K != b.Ops[i].K || !bytes.Equal(a.Ops[i].KB, b.Ops[i].KB) {
			t.Fatalf("%s: op %d differs", path, i)
		}
	}
	if (a.Comb == nil) != (b.Comb == nil) {
		t.Fatalf("%s: comb presence differs", path)
	}
	if a.Comb != nil && *a.Comb != *b.Comb {
		t.Fatalf("%s: comb %+v != %+v", path, *a.Comb, *b.Comb)
	}
	if (a.Pair == nil) != (b.Pair == nil) {
		t.Fatalf("%s: pair presence differs", path)
	}
	if a.Pair != nil && *a.Pair != *b.Pair {
		t.Fatalf("%s: pair %+v != %+v", path, *a.Pair, *b.Pair)
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("%s: %d children != %d children", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		sameNode(t, path+"/"+a.Children[i].Name, a.Children[i], b.Children[i])
	}
}

func TestRoundTrip(t *testing.T) {
	for _, seed := range []int64{7, 53, 9001} {
		a := testArtifact(t, seed, uint64(seed)%5)
		enc, err := artifact.Encode(a)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := artifact.Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Key != a.Key {
			t.Fatalf("key %+v != %+v", got.Key, a.Key)
		}
		if got.PerNode != a.PerNode || got.Applied != a.Applied {
			t.Fatalf("metadata differs: %+v vs %+v", got, a)
		}
		if got.Graph.ProtocolName != a.Graph.ProtocolName {
			t.Fatalf("protocol name %q != %q", got.Graph.ProtocolName, a.Graph.ProtocolName)
		}
		sameNode(t, a.Graph.Root.Name, a.Graph.Root, got.Graph.Root)
	}
}

// A restored graph must have parent links rebuilt so serialization and
// parsing can walk upward.
func TestDecodeRebuildsParents(t *testing.T) {
	a := testArtifact(t, 11, 0)
	enc, err := artifact.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := artifact.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *graph.Node)
	walk = func(n *graph.Node) {
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatalf("child %q has parent %v, want %q", c.Name, c.Parent, n.Name)
			}
			walk(c)
		}
	}
	walk(got.Graph.Root)
}

// A blob can be well-formed and still hold a graph that Validate
// rejects. Here a repetition has no item node: decoding it must fail as
// corrupt, or the parser dereferences the missing item.
func TestDecodeRejectsInvalidGraph(t *testing.T) {
	g := graph.New("broken", &graph.Node{
		Name: "msg", Kind: graph.Sequence, Boundary: graph.Boundary{Kind: graph.Delegated},
		Children: []*graph.Node{{Name: "items", Kind: graph.Repetition, Boundary: graph.Boundary{Kind: graph.End}}},
	})
	enc, err := artifact.Encode(&artifact.Artifact{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Decode(enc); !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("decode of an invalid graph: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	a := testArtifact(t, 11, 0)
	enc, err := artifact.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail loudly; step to keep the test fast.
	for n := 0; n < len(enc); n += 7 {
		if _, err := artifact.Decode(enc[:n]); err == nil {
			t.Fatalf("decode accepted a %d-byte prefix of a %d-byte artifact", n, len(enc))
		}
	}
	// Trailing junk must fail too.
	if _, err := artifact.Decode(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	a := testArtifact(t, 11, 0)
	enc, err := artifact.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := artifact.Decode(bad); err == nil {
		t.Fatal("decode accepted a bad magic")
	}
	bad = append([]byte(nil), enc...)
	bad[5] ^= 0xFF // version low byte
	if _, err := artifact.Decode(bad); err == nil {
		t.Fatal("decode accepted an unknown format version")
	}
}

func TestSpecDigestSensitivity(t *testing.T) {
	base := artifact.SpecDigest(testSpec, 3, nil, nil)
	if artifact.SpecDigest(testSpec, 3, nil, nil) != base {
		t.Fatal("digest is not deterministic")
	}
	if artifact.SpecDigest(testSpec+" ", 3, nil, nil) == base {
		t.Fatal("digest ignores the source")
	}
	if artifact.SpecDigest(testSpec, 4, nil, nil) == base {
		t.Fatal("digest ignores the per-node budget")
	}
	if artifact.SpecDigest(testSpec, 3, []string{"SplitField"}, nil) == base {
		t.Fatal("digest ignores the Only filter")
	}
	if artifact.SpecDigest(testSpec, 3, nil, []string{"PadMessage"}) == base {
		t.Fatal("digest ignores the Exclude filter")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := artifact.NewStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 42, 3)

	if _, ok, err := st.Load(a.Key); err != nil || ok {
		t.Fatalf("load before save: ok=%v err=%v", ok, err)
	}
	if err := st.Save(a); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, ok, err := st.Load(a.Key)
	if err != nil || !ok {
		t.Fatalf("load after save: ok=%v err=%v", ok, err)
	}
	sameNode(t, "root", a.Graph.Root, got.Graph.Root)

	// A different epoch of the same family is still a miss.
	miss := a.Key
	miss.Epoch++
	if _, ok, _ := st.Load(miss); ok {
		t.Fatal("load hit on a different epoch")
	}
}

func TestStoreRejectsKeyMismatch(t *testing.T) {
	st, err := artifact.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 42, 3)
	if err := st.Save(a); err != nil {
		t.Fatal(err)
	}
	// Rename the blob under a different key's filename: the embedded
	// key check must refuse to serve it.
	other := a.Key
	other.Epoch = 9
	if err := os.Rename(st.Path(a.Key), st.Path(other)); err != nil {
		t.Fatal(err)
	}
	_, _, err = st.Load(other)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("load of a renamed artifact: %v", err)
	}
}

func TestStoreRejectsCorruptFile(t *testing.T) {
	st, err := artifact.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 42, 3)
	if err := st.Save(a); err != nil {
		t.Fatal(err)
	}
	path := st.Path(a.Key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(a.Key); err == nil {
		t.Fatal("load accepted a corrupt file")
	}
}
