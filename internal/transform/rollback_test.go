package transform_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"protoobf/internal/graph"
	"protoobf/internal/rng"
	"protoobf/internal/transform"
)

// TestCheckpointRollback is the oracle behind the engine's in-place
// rollback: on every dialect of the golden grid, applying any applicable
// transformation at any node and then restoring the checkpoint taken
// before it must leave the graph equal to an untouched clone, parent
// pointers and fresh-name counter included. It holds every
// Transform.Apply to the Checkpoint contract.
func TestCheckpointRollback(t *testing.T) {
	var exported []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(graph.Node{})) {
		if f.IsExported() {
			exported = append(exported, f.Name)
		}
	}
	if !reflect.DeepEqual(exported, nodeFields) {
		t.Fatalf("graph.Node fields %v, the oracle compares %v", exported, nodeFields)
	}
	catalog := transform.Catalog()
	attempts := 0
	for i, d := range goldenGrid(t) {
		ref := d.proto.Graph.Clone()
		work := d.proto.Graph.Clone()
		r := rng.New(int64(i))
		// Restore keeps node identity, so one node list serves every
		// attempt on this graph.
		for _, n := range work.Nodes() {
			for _, tr := range catalog {
				if !tr.Applicable(work, n) {
					continue
				}
				attempts++
				cp := work.Checkpoint(n)
				_, _ = tr.Apply(work, n, r) // a failed Apply must roll back too
				cp.Restore()
				if diff := graphDiff(ref, work); diff != "" {
					t.Fatalf("%s: %s at %q not rolled back: %s", d.key, tr.Name(), n.Name, diff)
				}
				if want, got := ref.FreshName(n.Name), work.FreshName(n.Name); got != want {
					t.Fatalf("%s: %s at %q: next fresh name %q, want %q", d.key, tr.Name(), n.Name, got, want)
				}
			}
		}
	}
	if attempts == 0 {
		t.Fatal("no transformation was applicable anywhere on the grid")
	}
}

// graphDiff compares two graphs node by node in parse order: the node
// fields, the shape of the tree, and b's parent pointers. It returns "" when they match.
func graphDiff(a, b *graph.Graph) string {
	if a.ProtocolName != b.ProtocolName {
		return fmt.Sprintf("protocol %q != %q", b.ProtocolName, a.ProtocolName)
	}
	if b.Root != nil && b.Root.Parent != nil {
		return "root has a parent"
	}
	return nodeDiff(a.Root, b.Root)
}

func nodeDiff(a, b *graph.Node) string {
	if a == nil || b == nil {
		if a != b {
			return "nil node"
		}
		return ""
	}
	if !sameFields(a, b) {
		return fmt.Sprintf("node %q: fields %+v, want %+v", b.Name, *b, *a)
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Sprintf("node %q: %d children, want %d", b.Name, len(b.Children), len(a.Children))
	}
	for i, c := range b.Children {
		if c.Parent != b {
			return fmt.Sprintf("node %q: stale parent pointer", c.Name)
		}
		if diff := nodeDiff(a.Children[i], c); diff != "" {
			return diff
		}
	}
	return ""
}

// nodeFields lists the graph.Node fields graphDiff compares, the tree
// links included; TestCheckpointRollback fails when Node gains a field
// this list and sameFields do not cover.
var nodeFields = []string{"Name", "Kind", "Boundary", "Enc", "MinLen", "Cond",
	"Children", "Parent", "Origin", "Ops", "Comb", "Reversed", "Pair", "AutoFill"}

// sameFields compares every exported field of two nodes except the tree
// links. It is written out rather than reflective because the rollback
// oracle runs it on every node after every attempt.
func sameFields(a, b *graph.Node) bool {
	if a.Name != b.Name || a.Kind != b.Kind || a.Enc != b.Enc || a.MinLen != b.MinLen ||
		a.Origin != b.Origin || a.Reversed != b.Reversed || a.AutoFill != b.AutoFill {
		return false
	}
	ba, bb := a.Boundary, b.Boundary
	if ba.Kind != bb.Kind || ba.Size != bb.Size || ba.Ref != bb.Ref || !bytes.Equal(ba.Delim, bb.Delim) {
		return false
	}
	ca, cb := a.Cond, b.Cond
	if ca.Ref != cb.Ref || ca.Op != cb.Op || ca.UintVal != cb.UintVal || ca.IsBytes != cb.IsBytes ||
		!bytes.Equal(ca.BytesVal, cb.BytesVal) {
		return false
	}
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i, op := range a.Ops {
		if op.Kind != b.Ops[i].Kind || op.K != b.Ops[i].K || !bytes.Equal(op.KB, b.Ops[i].KB) {
			return false
		}
	}
	if (a.Comb == nil) != (b.Comb == nil) || a.Comb != nil && *a.Comb != *b.Comb {
		return false
	}
	return (a.Pair == nil) == (b.Pair == nil) && (a.Pair == nil || *a.Pair == *b.Pair)
}
