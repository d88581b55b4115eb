package artifact_test

import (
	"bytes"
	"testing"

	"protoobf/internal/artifact"
	"protoobf/internal/wire"
)

// FuzzArtifactDecode throws arbitrary bytes at the artifact decoder —
// the one parser in the system that reads attacker-reachable disk
// state (a shared cache directory). Properties: never panic, never
// accept trailing or truncated input silently, accepted inputs must
// re-encode byte-identically (the format is canonical), and the parser
// must run on every accepted graph without a panic.
func FuzzArtifactDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x64, 0x69, 0x61, 0x31})       // magic only
	f.Add([]byte{0x64, 0x69, 0x61, 0x31, 0, 1}) // magic + version
	for _, seed := range []int64{7, 53} {
		a := testArtifact(f, seed, 1)
		enc, err := artifact.Encode(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// A mutated sibling so the engine starts near the deep paths.
		mut := append([]byte(nil), enc...)
		mut[len(mut)/2] ^= 0x40
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := artifact.Decode(data)
		if err != nil {
			return
		}
		if a.Graph == nil || a.Graph.Root == nil {
			t.Fatal("accepted artifact with no graph")
		}
		enc, err := artifact.Encode(a)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs from accepted input (%d vs %d bytes)", len(enc), len(data))
		}
		// Any bytes will do as a message: only a panic fails.
		_, _ = wire.Parse(a.Graph, data, nil)
	})
}
