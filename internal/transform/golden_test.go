package transform_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoobf/internal/artifact"
	"protoobf/internal/core"
	"protoobf/internal/graph"
	"protoobf/internal/protocols/httpmsg"
	"protoobf/internal/protocols/modbus"
)

// goldenFile pins every dialect of the golden grid. Peers on different
// builds must derive the same dialect from the same (spec, family,
// epoch), and the artifact store keys dialects without a code version,
// so this file must never change: an engine change that alters it
// changes the wire format of deployed dialect families. A new grid cell
// is added by hand, from the "got" line of the mismatch report, in a
// change that says why.
const goldenFile = "testdata/golden_dialects.txt"

// goldenSpec is one specification of the golden grid.
type goldenSpec struct {
	name   string
	source string
}

func goldenSpecs(t testing.TB) []goldenSpec {
	t.Helper()
	quick, err := os.ReadFile(filepath.Join("..", "..", "testdata", "quickstart.spec"))
	if err != nil {
		t.Fatal(err)
	}
	return []goldenSpec{
		{"modbus-request", modbus.RequestSpec},
		{"modbus-response", modbus.ResponseSpec},
		{"http-request", httpmsg.RequestSpec},
		{"http-response", httpmsg.ResponseSpec},
		{"quickstart", string(quick)},
	}
}

// The rest of the grid: per-node budgets, family master seeds and the
// epochs compiled in each family.
var (
	goldenPerNode  = []int{1, 2, 4}
	goldenFamilies = []int64{1, 2024, -7340813}
	goldenEpochs   = 4
)

// goldenDialect is one compiled cell of the grid.
type goldenDialect struct {
	key   string // "<spec> perNode=<n> family=<f> epoch=<e>"
	proto *core.Protocol
	line  string // key plus the pinned digest fields
}

// goldenGrid compiles every dialect of the grid through
// core.Rotation.Version, the path sessions use.
func goldenGrid(t testing.TB) []goldenDialect {
	t.Helper()
	var out []goldenDialect
	for _, s := range goldenSpecs(t) {
		for _, perNode := range goldenPerNode {
			digest := artifact.SpecDigest(s.source, perNode, nil, nil)
			for _, family := range goldenFamilies {
				rot, err := core.NewRotation(s.source, core.ObfuscationOptions{PerNode: perNode, Seed: family})
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				for epoch := uint64(0); epoch < uint64(goldenEpochs); epoch++ {
					p, err := rot.Version(epoch)
					if err != nil {
						t.Fatalf("%s perNode=%d family=%d epoch=%d: %v", s.name, perNode, family, epoch, err)
					}
					enc, err := artifact.Encode(&artifact.Artifact{
						Key:     artifact.Key{SpecDigest: digest, Family: family, Epoch: epoch},
						PerNode: perNode,
						Applied: len(p.Applied),
						Graph:   p.Graph,
					})
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(enc)
					key := fmt.Sprintf("%s perNode=%d family=%d epoch=%d", s.name, perNode, family, epoch)
					out = append(out, goldenDialect{
						key:   key,
						proto: p,
						line: fmt.Sprintf("%s applied=%d rejected=%d sha256=%s",
							key, len(p.Applied), p.Rejected, hex.EncodeToString(sum[:])),
					})
				}
			}
		}
	}
	return out
}

// TestGoldenDialects holds the transformation engine to bit-identical
// output: every dialect of the grid must encode to the pinned artifact
// digest, with the pinned numbers of applied and rejected attempts.
func TestGoldenDialects(t *testing.T) {
	grid := goldenGrid(t)
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 7 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[strings.Join(fields[:4], " ")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(grid) {
		t.Errorf("golden file has %d dialects, grid has %d", len(want), len(grid))
	}
	for _, d := range grid {
		if w, ok := want[d.key]; !ok {
			t.Errorf("%s: missing from %s", d.key, goldenFile)
		} else if w != d.line {
			t.Errorf("dialect changed:\n got %s\nwant %s", d.line, w)
		}
		// Accessors and references resolve a name to the first carrier
		// in scope (msgtree), so a second carrier would be shadowed.
		carriers := map[string]int{}
		d.proto.Graph.Walk(func(n *graph.Node) bool {
			if r := n.Origin.Role; r == graph.RoleWhole || r == graph.RoleLengthOf {
				carriers[n.Origin.Name]++
			}
			return true
		})
		for name, c := range carriers {
			if c > 1 {
				t.Errorf("%s: %d nodes carry %q", d.key, c, name)
			}
		}
	}
}
