package rng

import (
	"runtime"
	"strings"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(8)
	same := true
	a2 := New(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(1)
	s1 := r.Split()
	s2 := r.Split()
	equal := true
	for i := 0; i < 16; i++ {
		if s1.Uint64() != s2.Uint64() {
			equal = false
			break
		}
	}
	if equal {
		t.Error("successive splits produced identical streams")
	}
}

func TestBytesLength(t *testing.T) {
	r := New(2)
	for _, n := range []int{0, 1, 17, 256} {
		if got := r.Bytes(n); len(got) != n {
			t.Errorf("Bytes(%d) = %d bytes", n, len(got))
		}
	}
}

func TestPadBytesAlphabet(t *testing.T) {
	r := New(3)
	b := r.PadBytes(4096)
	for _, c := range b {
		if !strings.ContainsRune(padAlphabet, rune(c)) {
			t.Fatalf("pad byte %q outside the delimiter-safe alphabet", c)
		}
	}
	// The alphabet must exclude the delimiter bytes used by the bundled
	// protocols.
	for _, forbidden := range []byte{'\r', '\n', ' ', ':', ';', '|', ','} {
		if strings.IndexByte(padAlphabet, forbidden) >= 0 {
			t.Errorf("pad alphabet contains delimiter byte %q", forbidden)
		}
	}
}

func TestPick(t *testing.T) {
	r := New(4)
	if r.Pick(0) != -1 || r.Pick(-1) != -1 {
		t.Error("Pick on empty should return -1")
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := r.Pick(3)
		if v < 0 || v > 2 {
			t.Fatalf("Pick(3) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("Pick(3) covered %d values", len(seen))
	}
}

// compileStream pins the first outputs of New for two seeds. Dialect
// compilation draws from New, so these values are what keeps a (spec,
// seed) pair compiling to the same dialect across releases.
var compileStream = map[int64][8]uint64{
	1: {
		0x4d65822107fcfd52, 0x78629a0f5f3f164f, 0xd5104dc76695721d, 0xb80704bb7b4d7c03,
		0x365a858149c6e2d1, 0x57e9d1860d1d68d8, 0x8866cb397916001e, 0x9408d2ac22c4d294,
	},
	-7: {
		0x8a5e41e14552000b, 0xe2520710aa2adde6, 0x6115c8521a52b428, 0x8b4e12409954e1fb,
		0x269fc7bbbc7186f4, 0xed553d0accc08b2d, 0xd2a6e7c000d29e09, 0xd42d029a5c47f69c,
	},
}

func TestNewStreamPinned(t *testing.T) {
	for seed, want := range compileStream {
		r := New(seed)
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Fatalf("New(%d) output %d = %#x, want %#x", seed, i, got, w)
			}
		}
	}
}

// TestSplitDrawsOnce pins the one-draw rule: Split consumes exactly one
// output of the parent, so everything drawn from the parent afterwards
// is the same whatever the child's generator is.
func TestSplitDrawsOnce(t *testing.T) {
	for seed, want := range compileStream {
		r := New(seed)
		r.Split()
		if got := r.Uint64(); got != want[1] {
			t.Fatalf("New(%d) after one Split: next output %#x, want %#x", seed, got, want[1])
		}
	}
}

// TestSplitMixReference checks the split generator against the
// reference SplitMix64 outputs for seed 1234567.
func TestSplitMixReference(t *testing.T) {
	x := splitMix{s: 1234567}
	for i, want := range []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821,
	} {
		if got := x.Uint64(); got != want {
			t.Fatalf("output %d = %d, want %d", i, got, want)
		}
	}
}

var sink *R

// TestSplitCost bounds what one Split costs: a message path splits once
// per message, so a seeding table must not come back.
func TestSplitCost(t *testing.T) {
	r := New(5)
	if n := testing.AllocsPerRun(1000, func() { sink = r.Split() }); n > 3 {
		t.Errorf("Split: %.1f allocs, want <= 3", n)
	}
	const splits = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < splits; i++ {
		sink = r.Split()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / splits; per >= 256 {
		t.Errorf("Split: %d bytes, want < 256", per)
	}
}
