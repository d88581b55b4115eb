package protoobf_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"protoobf"
)

const ticketSpec = `
protocol ticket;
root seq msg end {
    uint  version 1;
    uint  kind 1;
    uint  blen 2;
    seq body length(blen) {
        bytes user delim ";" min 1;
        uint  n 1;
        tabular seats count(n) { uint seat 2; }
    }
    optional note when kind == 2 { bytes text end; }
}
`

func buildTicket(t *testing.T, proto *protoobf.Protocol, kind uint64) *protoobf.Message {
	t.Helper()
	msg := proto.NewMessage()
	s := msg.Scope()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.SetUint("version", 1))
	must(s.SetUint("kind", kind))
	must(s.SetString("user", "ada"))
	for _, seat := range []uint64{101, 102} {
		item, err := s.Add("seats")
		must(err)
		must(item.SetUint("seat", seat))
	}
	if kind == 2 {
		sc, err := s.Enable("note")
		must(err)
		must(sc.SetString("text", "aisle please"))
	}
	return msg
}

func TestPublicAPIRoundTrip(t *testing.T) {
	for perNode := 0; perNode <= 3; perNode++ {
		proto, err := protoobf.Compile(ticketSpec, protoobf.Options{PerNode: perNode, Seed: 7})
		if err != nil {
			t.Fatalf("Compile(perNode=%d): %v", perNode, err)
		}
		for _, kind := range []uint64{1, 2} {
			msg := buildTicket(t, proto, kind)
			data, err := proto.Serialize(msg)
			if err != nil {
				t.Fatalf("Serialize: %v\n%s", err, proto.Trace())
			}
			back, err := proto.Parse(data)
			if err != nil {
				t.Fatalf("Parse: %v\n%s", err, proto.Trace())
			}
			s := back.Scope()
			if v, err := s.GetUint("kind"); err != nil || v != kind {
				t.Errorf("kind = %d, %v", v, err)
			}
			if u, err := s.GetBytes("user"); err != nil || string(u) != "ada" {
				t.Errorf("user = %q, %v", u, err)
			}
			items, err := s.Items("seats")
			if err != nil || len(items) != 2 {
				t.Fatalf("seats = %d, %v", len(items), err)
			}
			if v, _ := items[1].GetUint("seat"); v != 102 {
				t.Errorf("seat[1] = %d", v)
			}
		}
	}
}

func TestCompileDeterminism(t *testing.T) {
	a, err := protoobf.Compile(ticketSpec, protoobf.Options{PerNode: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := protoobf.Compile(ticketSpec, protoobf.Options{PerNode: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace() != b.Trace() {
		t.Error("same seed, different transformation traces")
	}
	srcA, err := a.GenerateSource("p")
	if err != nil {
		t.Fatal(err)
	}
	srcB, err := b.GenerateSource("p")
	if err != nil {
		t.Fatal(err)
	}
	if srcA != srcB {
		t.Error("same seed, different generated source")
	}
}

func TestObfuscatedWireDiffersFromPlain(t *testing.T) {
	plain, err := protoobf.Compile(ticketSpec, protoobf.Options{PerNode: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obf, err := protoobf.Compile(ticketSpec, protoobf.Options{PerNode: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := plain.Serialize(buildTicket(t, plain, 1))
	if err != nil {
		t.Fatal(err)
	}
	od, err := obf.Serialize(buildTicket(t, obf, 1))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pd, od) {
		t.Error("obfuscated wire identical to plain wire")
	}
	if len(obf.Applied) == 0 {
		t.Error("no transformations applied")
	}
}

func TestTransformNames(t *testing.T) {
	names := protoobf.TransformNames()
	if len(names) != 13 {
		t.Errorf("%d transformations, want 13 (table I)", len(names))
	}
	want := map[string]bool{"SplitAdd": true, "ReadFromEnd": true, "ChildMove": true, "TabSplit": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing transformations: %v", want)
	}
}

func TestGenerateSourceCompilesConceptually(t *testing.T) {
	proto, err := protoobf.Compile(ticketSpec, protoobf.Options{PerNode: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, err := proto.GenerateSource("ticket")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package ticket", "func Parse(", "func SelfTest()"} {
		if !bytes.Contains([]byte(src), []byte(want)) {
			t.Errorf("generated source lacks %q", want)
		}
	}
}

// ExampleCompile demonstrates the end-to-end pipeline on a tiny spec.
func ExampleCompile() {
	proto, err := protoobf.Compile(`
protocol ping;
root seq msg end {
    uint  seqno 4;
    bytes note end;
}`, protoobf.Options{PerNode: 1, Seed: 12})
	if err != nil {
		panic(err)
	}
	m := proto.NewMessage()
	s := m.Scope()
	if err := s.SetUint("seqno", 41); err != nil {
		panic(err)
	}
	if err := s.SetString("note", "hello"); err != nil {
		panic(err)
	}
	data, err := proto.Serialize(m)
	if err != nil {
		panic(err)
	}
	back, err := proto.Parse(data)
	if err != nil {
		panic(err)
	}
	v, _ := back.Scope().GetUint("seqno")
	fmt.Println(v)
	// Output: 41
}

// ExampleNewRotation shows the epoch-keyed dialect family: the same
// message serializes to different wire bytes in different epochs, while
// every peer sharing (spec, options) derives identical dialects.
func ExampleNewRotation() {
	spec := `
protocol ping;
root seq msg end {
    uint  seqno 4;
    bytes note end;
}`
	rot, err := protoobf.NewRotation(spec, protoobf.Options{PerNode: 2, Seed: 7})
	if err != nil {
		panic(err)
	}
	serialize := func(epoch uint64) []byte {
		proto, err := rot.Version(epoch)
		if err != nil {
			panic(err)
		}
		m := proto.NewMessage()
		if err := m.Scope().SetUint("seqno", 9); err != nil {
			panic(err)
		}
		if err := m.Scope().SetString("note", "hi"); err != nil {
			panic(err)
		}
		data, err := proto.Serialize(m)
		if err != nil {
			panic(err)
		}
		return data
	}
	fmt.Println("epochs 0 and 1 share wire bytes:", bytes.Equal(serialize(0), serialize(1)))
	// Output: epochs 0 and 1 share wire bytes: false
}

// ExampleNewSchedule shows wall-clock epoch derivation with an injected
// clock: peers sharing (genesis, interval) agree on the epoch — and so
// on the dialect — from their own clocks, with no coordination.
func ExampleNewSchedule() {
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s := protoobf.NewSchedule(genesis, time.Hour).WithClock(func() time.Time {
		return genesis.Add(36*time.Hour + 20*time.Minute)
	})
	fmt.Println("current epoch:", s.Epoch())
	next, wait := s.Next()
	fmt.Println("epoch", next, "starts in", wait)
	// Output:
	// current epoch: 36
	// epoch 37 starts in 40m0s
}

// Session-level coverage lives in endpoint_test.go.
