package wire_test

import (
	"testing"

	"protoobf/internal/graph"
	"protoobf/internal/msgtree"
	"protoobf/internal/protocols/httpmsg"
	"protoobf/internal/protocols/modbus"
	"protoobf/internal/rng"
	"protoobf/internal/transform"
	"protoobf/internal/wire"
)

// FuzzParseReparse checks the parser against the serializer on
// arbitrary bytes. The first input byte picks one of ten fixed-seed
// dialects (Modbus and HTTP requests at perNode 0-4), the rest is the
// message. Whatever parses into a readable message must serialize, and
// the bytes serialized must parse back to the same field values. The
// target must never panic.
func FuzzParseReparse(f *testing.F) {
	type dialect struct {
		g     *graph.Graph
		build func(*graph.Graph, *rng.R) (*msgtree.Message, error)
	}
	var dialects []dialect
	for _, proto := range []struct {
		base  func() (*graph.Graph, error)
		build func(*graph.Graph, *rng.R) (*msgtree.Message, error)
	}{
		{modbus.RequestGraph, func(g *graph.Graph, r *rng.R) (*msgtree.Message, error) {
			return modbus.BuildRequest(g, r, modbus.RandomRequest(r))
		}},
		{httpmsg.RequestGraph, func(g *graph.Graph, r *rng.R) (*msgtree.Message, error) {
			return httpmsg.BuildRequest(g, r, httpmsg.RandomRequest(r))
		}},
	} {
		base, err := proto.base()
		if err != nil {
			f.Fatal(err)
		}
		for perNode := 0; perNode <= 4; perNode++ {
			g := base
			if perNode > 0 {
				res, err := transform.Obfuscate(base, transform.Options{PerNode: perNode}, rng.New(int64(17+perNode)))
				if err != nil {
					f.Fatal(err)
				}
				g = res.Graph
			}
			dialects = append(dialects, dialect{g, proto.build})
		}
	}
	r := rng.New(5)
	for i, d := range dialects {
		for k := 0; k < 3; k++ {
			m, err := d.build(d.g, r)
			if err != nil {
				f.Fatal(err)
			}
			data, err := wire.Serialize(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte{byte(i)}, data...))
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		g := dialects[int(in[0])%len(dialects)].g
		m, err := wire.Parse(g, in[1:], rng.New(1))
		if err != nil {
			return
		}
		want, err := m.Snapshot()
		if err != nil {
			return // the structure parsed, but a value does not decode
		}
		out, err := wire.Serialize(m)
		if err != nil {
			t.Fatalf("parsed message does not serialize: %v", err)
		}
		back, err := wire.Parse(g, out, rng.New(2))
		if err != nil {
			t.Fatalf("reserialized message does not parse: %v", err)
		}
		got, err := back.Snapshot()
		if err != nil {
			t.Fatalf("reparsed message does not read back: %v", err)
		}
		if diff := msgtree.SnapshotsEqual(want, got); diff != "" {
			t.Fatalf("reparse changed the message: %s", diff)
		}
	})
}
