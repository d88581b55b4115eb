package core

import (
	"os"
	"testing"

	"protoobf/internal/artifact"
)

// writeHalf truncates the file to half its size, corrupting it.
func writeHalf(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data[:len(data)/2], 0o644)
}

const storeTestSpec = `
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

func newTestStore(t *testing.T) *artifact.Store {
	t.Helper()
	st, err := artifact.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Cold start compiles and persists; a second rotation on the same store
// restores every version without compiling anything.
func TestRotationStoreWarmStart(t *testing.T) {
	st := newTestStore(t)
	opts := ObfuscationOptions{PerNode: 2, Seed: 53}

	cold, err := NewRotationCache(storeTestSpec, opts, 0, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 5; e++ {
		if _, err := cold.Version(e); err != nil {
			t.Fatalf("cold epoch %d: %v", e, err)
		}
	}
	cs := cold.Stats()
	if cs.Compiles != 5 || cs.ArtifactSaves != 5 || cs.ArtifactLoads != 0 {
		t.Fatalf("cold stats: compiles=%d saves=%d loads=%d, want 5/5/0", cs.Compiles, cs.ArtifactSaves, cs.ArtifactLoads)
	}

	warm, err := NewRotationCache(storeTestSpec, opts, 0, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 5; e++ {
		if _, err := warm.Version(e); err != nil {
			t.Fatalf("warm epoch %d: %v", e, err)
		}
	}
	ws := warm.Stats()
	if ws.Compiles != 0 {
		t.Fatalf("warm start compiled %d versions, want 0", ws.Compiles)
	}
	if ws.ArtifactLoads != 5 {
		t.Fatalf("warm start loaded %d artifacts, want 5", ws.ArtifactLoads)
	}
	if ws.DemandCompiles() != 0 {
		t.Fatalf("warm start paid %d demand compiles, want 0", ws.DemandCompiles())
	}
}

// A restored version and its compiled twin must interoperate on the
// wire in both directions: the serialized graph is the contract, the
// re-derived RNG only feeds parser-ignored randomness.
func TestRestoredVersionWireInterop(t *testing.T) {
	st := newTestStore(t)
	opts := ObfuscationOptions{PerNode: 3, Seed: 91}

	cold, err := NewRotationCache(storeTestSpec, opts, 0, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewRotationCache(storeTestSpec, opts, 0, 0, st)
	if err != nil {
		t.Fatal(err)
	}

	for e := uint64(0); e < 4; e++ {
		compiled, err := cold.Version(e)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := warm.Version(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []struct {
			name     string
			from, to *Protocol
		}{
			{"restored->compiled", restored, compiled},
			{"compiled->restored", compiled, restored},
		} {
			m := dir.from.NewMessage()
			s := m.Scope()
			if err := s.SetUint("device", 7); err != nil {
				t.Fatal(err)
			}
			if err := s.SetUint("seqno", 1000+e); err != nil {
				t.Fatal(err)
			}
			if err := s.SetString("status", "ok"); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBytes("sig", nil); err != nil {
				t.Fatal(err)
			}
			data, err := dir.from.Serialize(m)
			if err != nil {
				t.Fatalf("epoch %d %s serialize: %v", e, dir.name, err)
			}
			got, err := dir.to.Parse(data)
			if err != nil {
				t.Fatalf("epoch %d %s parse: %v", e, dir.name, err)
			}
			v, err := got.Scope().GetUint("seqno")
			if err != nil {
				t.Fatal(err)
			}
			if v != 1000+e {
				t.Fatalf("epoch %d %s: decoded seqno %d, want %d", e, dir.name, v, 1000+e)
			}
		}
	}
	if warm.Stats().Compiles != 0 {
		t.Fatalf("warm rotation compiled %d versions during interop, want 0", warm.Stats().Compiles)
	}
}

// A corrupt artifact must not poison the rotation: the load error is
// counted and the version compiles as if the store missed.
func TestRotationStoreFallsBackOnCorruptArtifact(t *testing.T) {
	st := newTestStore(t)
	opts := ObfuscationOptions{PerNode: 2, Seed: 17}
	cold, err := NewRotationCache(storeTestSpec, opts, 0, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Version(1); err != nil {
		t.Fatal(err)
	}
	// Corrupt epoch 1's artifact on disk.
	k := artifact.Key{SpecDigest: artifact.SpecDigest(storeTestSpec, 2, nil, nil), Family: 17, Epoch: 1}
	if err := writeHalf(st.Path(k)); err != nil {
		t.Fatal(err)
	}
	warm, err := NewRotationCache(storeTestSpec, opts, 0, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Version(1); err != nil {
		t.Fatalf("version after corrupt artifact: %v", err)
	}
	ws := warm.Stats()
	if ws.ArtifactErrors == 0 {
		t.Fatal("corrupt artifact load was not counted")
	}
	if ws.Compiles != 1 {
		t.Fatalf("fallback compiled %d versions, want 1", ws.Compiles)
	}
}
