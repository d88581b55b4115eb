// Package rng provides seeded, reproducible randomness for the
// obfuscation framework. Every experiment derives per-run generators from
// a root seed so that a (spec, seed) pair always yields the same
// obfuscated protocol, which is what lets the framework re-generate
// "new versions of the obfuscated core application at regular intervals"
// deterministically (paper §I).
//
// There are two kinds of stream:
//
//   - New is the compile stream. It runs on math/rand's generator, and
//     its outputs are pinned: dialect compilation draws from it, so
//     changing them would change every compiled dialect.
//   - Split is the per-message stream. It takes exactly one draw from
//     its parent and runs a SplitMix64 child that is cheap to create.
//     Nothing pins its outputs byte for byte; only the one-draw rule is
//     pinned, so what the parent yields afterwards does not change.
//     In a live session the parent is the message rng of
//     session.EpochCore, which Init seeds from crypto/rand: sessions of
//     one family share the dialect, not the bytes of its messages.
package rng

import (
	"math/rand"
)

// R is a source of randomness. It wraps math/rand.Rand with the handful
// of helpers the framework needs.
type R struct {
	*rand.Rand
}

// New returns a generator seeded with seed.
func New(seed int64) *R {
	return &R{Rand: rand.New(rand.NewSource(seed))}
}

// Split derives an independent generator from exactly one draw of r;
// successive calls derive different streams. The child runs on
// SplitMix64, so a split costs a few small allocations instead of
// seeding a fresh math/rand table.
func (r *R) Split() *R {
	return &R{Rand: rand.New(&splitMix{s: uint64(r.Int63())})}
}

// splitMix is SplitMix64 (Steele, Lea and Flood, "Fast splittable
// pseudorandom number generators", OOPSLA 2014) as a rand.Source64.
type splitMix struct{ s uint64 }

func (x *splitMix) Seed(seed int64) { x.s = uint64(seed) }

func (x *splitMix) Int63() int64 { return int64(x.Uint64() >> 1) }

func (x *splitMix) Uint64() uint64 {
	x.s += 0x9e3779b97f4a7c15
	z := x.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Bytes returns n random bytes.
func (r *R) Bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// padAlphabet is the alphabet used for padding field values. It excludes
// every byte that commonly starts a delimiter (CR, LF, SP, ':', ';', ',')
// so that random padding can never be confused with a terminator scan.
const padAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

// PadBytes returns n random bytes drawn from the delimiter-safe alphabet.
func (r *R) PadBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = padAlphabet[r.Intn(len(padAlphabet))]
	}
	return b
}

// Pick returns a uniformly random element index of a slice of length n,
// or -1 when n == 0.
func (r *R) Pick(n int) int {
	if n <= 0 {
		return -1
	}
	return r.Intn(n)
}
