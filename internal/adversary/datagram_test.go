package adversary

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"protoobf/internal/core"
	"protoobf/internal/rng"
	"protoobf/internal/session/dgram"
)

// TestDatagramCapture: packet captures produce one frame per message
// in both modes, and zero-overhead frames really have no readable
// header.
func TestDatagramCapture(t *testing.T) {
	for _, zo := range []bool{false, true} {
		t.Run(fmt.Sprintf("zeroOverhead=%v", zo), func(t *testing.T) {
			tr, err := Capture(CaptureConfig{
				PerNode: 2, Seed: 11, TrafficSeed: 7,
				Msgs: 32, Epochs: 2,
				Datagram: true, ZeroOverhead: zo,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Frames) != 32 {
				t.Fatalf("captured %d frames, want 32", len(tr.Frames))
			}
			for i, f := range tr.Frames {
				if zo && f.Kind != 0xFF {
					t.Fatalf("frame %d: zero-overhead capture parsed a header (kind %#02x)", i, f.Kind)
				}
				if !zo && f.Kind != 0 {
					t.Fatalf("frame %d: kind %#02x, want data", i, f.Kind)
				}
			}
		})
	}
}

// TestDatagramMutationCampaign is the packet analogue of the stream
// campaign: every mutated packet either decodes, is handled as
// control, or is rejected and counted — and nothing ever crashes.
func TestDatagramMutationCampaign(t *testing.T) {
	for _, zo := range []bool{false, true} {
		t.Run(fmt.Sprintf("zeroOverhead=%v", zo), func(t *testing.T) {
			res, err := RunDatagramMutations(MutationConfig{Seed: 11, Cases: 24}, zo)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crashes != 0 {
				t.Fatalf("campaign crashed %d times: %+v", res.Crashes, res)
			}
			if res.Decoded == 0 {
				t.Fatalf("campaign decoded nothing — the baseline itself is broken: %+v", res)
			}
			if res.Rejected() == 0 {
				t.Fatalf("campaign rejected nothing — the mutations are not biting: %+v", res)
			}
			t.Logf("zo=%v: %+v", zo, res)
		})
	}
}

// FuzzDatagramDecode feeds arbitrary bytes — seeded with pristine and
// strategy-mutated packets from both wire formats — through the packet
// session's Decode in both modes. Every input must decode, be handled
// as control, or error cleanly; a panic or hang is the failure. This
// is the per-packet robustness the datagram layer stakes its
// loss-tolerance claim on: any packet, however mangled, costs at most
// itself.
func FuzzDatagramDecode(f *testing.F) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 11}
	seedConns := func(zo bool) [][]byte {
		rot, err := core.NewRotation(Spec, opts)
		if err != nil {
			f.Fatal(err)
		}
		pkts, err := baselinePackets(rot, 4, 11, zo)
		if err != nil {
			f.Fatal(err)
		}
		return pkts
	}
	r := rng.New(3)
	for _, zo := range []bool{false, true} {
		pkts := seedConns(zo)
		for _, p := range pkts {
			f.Add(p)
		}
		for _, strategy := range DatagramStrategies {
			for _, p := range MutateDatagram(pkts, strategy, r) {
				f.Add(p)
			}
		}
	}

	mkConn := func(zo bool) *dgram.Conn {
		rot, err := core.NewRotation(Spec, opts)
		if err != nil {
			f.Fatal(err)
		}
		c, err := dgram.NewConn(nullTransport{}, rot.View(), dgram.Options{ZeroOverhead: zo})
		if err != nil {
			f.Fatal(err)
		}
		return c
	}
	normal, zero := mkConn(false), mkConn(true)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode may modify its input; each receiver gets its own copy.
		normal.Decode(append([]byte(nil), data...))
		zero.Decode(append([]byte(nil), data...))
	})
}

// TestRegenDatagramFuzzCorpus rewrites the checked-in seed corpus of
// FuzzDatagramDecode when PROTOOBF_REGEN_CORPUS=1: pristine packets of
// both wire formats plus one mutant per strategy, in the Go fuzzing
// corpus-file encoding. The packets' random halves and padding come
// from per-session crypto/rand seeds, so regeneration rewrites their
// bytes; the packet shapes change only with the wire format.
func TestRegenDatagramFuzzCorpus(t *testing.T) {
	if os.Getenv("PROTOOBF_REGEN_CORPUS") != "1" {
		t.Skip("set PROTOOBF_REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzDatagramDecode")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDatagramDecode")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 11}
	r := rng.New(3)
	for _, zo := range []bool{false, true} {
		rot, err := core.NewRotation(Spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := baselinePackets(rot, 2, 11, zo)
		if err != nil {
			t.Fatal(err)
		}
		mode := "normal"
		if zo {
			mode = "zo"
		}
		for i, p := range pkts {
			writeCorpusFile(t, dir, fmt.Sprintf("seed-%s-pristine-%d", mode, i), p)
		}
		for _, strategy := range DatagramStrategies {
			mutated := MutateDatagram(pkts, strategy, r)
			writeCorpusFile(t, dir, fmt.Sprintf("seed-%s-%s", mode, strategy), mutated[0])
		}
	}
}

func writeCorpusFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
