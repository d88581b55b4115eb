package core

import (
	"strings"
	"testing"

	"protoobf/internal/msgtree"
)

const demoSource = `
protocol core_demo;
root seq m end {
    uint  a 2;
    uint  blen 2;
    seq b length(blen) {
        bytes s delim ";" min 1;
    }
    bytes tail end;
}
`

func build(t *testing.T, p *Protocol) *msgtree.Message {
	t.Helper()
	m := p.NewMessage()
	sc := m.Scope()
	for _, err := range []error{
		sc.SetUint("a", 300),
		sc.SetString("s", "str"),
		sc.SetString("tail", "T"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestCompileAndRoundTrip(t *testing.T) {
	p, err := Compile(demoSource, ObfuscationOptions{PerNode: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p.Original.NodeCount() >= p.Graph.NodeCount() {
		t.Error("obfuscation did not grow the graph")
	}
	m := build(t, p)
	data, err := p.Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := back.Scope().GetUint("a"); err != nil || v != 300 {
		t.Errorf("a = %d, %v", v, err)
	}
}

// Parsing follows the graph's parent pointers, and generating source
// validates the graph, so one dialect may do both at once only if
// Validate leaves current pointers unwritten (checked under -race).
func TestGenerateSourceWhileParsing(t *testing.T) {
	p, err := Compile(demoSource, ObfuscationOptions{PerNode: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Serialize(build(t, p))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.GenerateSource("demo")
		done <- err
	}()
	for i := 0; i < 50; i++ {
		if _, err := p.Parse(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCompileBadSpec(t *testing.T) {
	if _, err := Compile("protocol x;", ObfuscationOptions{}); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := Compile(demoSource, ObfuscationOptions{PerNode: 1, Only: []string{"Nope"}}); err == nil {
		t.Error("bad transform filter accepted")
	}
}

func TestProtocolMetadata(t *testing.T) {
	p, err := Compile(demoSource, ObfuscationOptions{PerNode: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Summary(), "core_demo") {
		t.Errorf("Summary = %q", p.Summary())
	}
	if len(p.Applied) == 0 || p.Trace() == "" {
		t.Error("trace empty")
	}
	src, err := p.GenerateSource("lib")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package lib") {
		t.Error("generated source lacks package clause")
	}
}

// TestOriginalUntouched: the original graph stays usable for the plain
// protocol (the paper's level-0 baseline).
func TestOriginalUntouched(t *testing.T) {
	p, err := Compile(demoSource, ObfuscationOptions{PerNode: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Original.Validate(); err != nil {
		t.Fatalf("original graph invalid: %v", err)
	}
	for _, n := range p.Original.Nodes() {
		if n.Reversed || n.Comb != nil || len(n.Ops) > 0 {
			t.Fatalf("original graph carries obfuscation artifacts at %q", n.Name)
		}
	}
}

func TestRotationDeterministicPerEpoch(t *testing.T) {
	r1, err := NewRotation(demoSource, ObfuscationOptions{PerNode: 2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRotation(demoSource, ObfuscationOptions{PerNode: 2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	// Same epoch on independent rotations: identical dialects.
	for _, epoch := range []uint64{0, 1, 9} {
		p1, err := r1.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := r2.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		if p1.Trace() != p2.Trace() {
			t.Fatalf("epoch %d: peers disagree on the dialect", epoch)
		}
		// A message serialized by peer 1 parses on peer 2.
		m := build(t, p1)
		data, err := p1.Serialize(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := p2.Parse(data)
		if err != nil {
			t.Fatalf("epoch %d: cross-peer parse: %v", epoch, err)
		}
		if v, _ := back.Scope().GetUint("a"); v != 300 {
			t.Errorf("epoch %d: a = %d", epoch, v)
		}
	}
	// Different epochs: different dialects.
	p0, _ := r1.Version(0)
	p1, _ := r1.Version(1)
	if p0.Trace() == p1.Trace() {
		t.Error("epochs 0 and 1 produced the same transformation trace")
	}
	// Caching returns the same object.
	pa, _ := r1.Version(5)
	pb, _ := r1.Version(5)
	if pa != pb {
		t.Error("epoch cache miss")
	}
}

func TestRotationCrossEpochIncompatible(t *testing.T) {
	r, err := NewRotation(demoSource, ObfuscationOptions{PerNode: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := r.Version(0)
	p1, _ := r.Version(1)
	m := build(t, p0)
	data, err := p0.Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	// A different epoch's parser should not quietly accept the message
	// with the same content. (It may fail to parse, or parse to junk —
	// either way the logical value must not silently match everywhere.)
	back, err := p1.Parse(data)
	if err == nil {
		if v, gerr := back.Scope().GetUint("a"); gerr == nil && v == 300 {
			sb, _ := back.Scope().GetBytes("s")
			if string(sb) == "str" {
				t.Error("cross-epoch message decoded identically; rotation is pointless")
			}
		}
	}
}

func TestRotationBadSpec(t *testing.T) {
	if _, err := NewRotation("nope", ObfuscationOptions{}); err == nil {
		t.Error("bad spec accepted")
	}
}
