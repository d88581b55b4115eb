package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUintBERoundTrip(t *testing.T) {
	cases := []struct {
		u     uint64
		width int
		wire  []byte
	}{
		{0, 1, []byte{0}},
		{0xAB, 1, []byte{0xAB}},
		{0x0102, 2, []byte{1, 2}},
		{0xDEADBEEF, 4, []byte{0xDE, 0xAD, 0xBE, 0xEF}},
		{1, 8, []byte{0, 0, 0, 0, 0, 0, 0, 1}},
	}
	for _, c := range cases {
		got := EncodeUintBE(c.u, c.width)
		if !bytes.Equal(got, c.wire) {
			t.Errorf("EncodeUintBE(%#x,%d) = %x, want %x", c.u, c.width, got, c.wire)
		}
		if back := DecodeUintBE(got); back != c.u {
			t.Errorf("DecodeUintBE(%x) = %#x, want %#x", got, back, c.u)
		}
	}
}

func TestEncodeTerminal(t *testing.T) {
	b, err := EncodeTerminal(EncUint, 2, UintVal(0x1234))
	if err != nil || !bytes.Equal(b, []byte{0x12, 0x34}) {
		t.Errorf("EncodeTerminal uint = %x, %v", b, err)
	}
	if _, err := EncodeTerminal(EncUint, 1, UintVal(256)); err == nil {
		t.Error("overflow not detected")
	}
	if _, err := EncodeTerminal(EncUint, 2, BytesVal([]byte("x"))); err == nil {
		t.Error("type mismatch not detected")
	}
	b, err = EncodeTerminal(EncASCII, 0, UintVal(1234))
	if err != nil || string(b) != "1234" {
		t.Errorf("EncodeTerminal ascii = %q, %v", b, err)
	}
	b, err = EncodeTerminal(EncBytes, 0, BytesVal([]byte("hi")))
	if err != nil || string(b) != "hi" {
		t.Errorf("EncodeTerminal bytes = %q, %v", b, err)
	}
}

func TestDecodeTerminal(t *testing.T) {
	v, err := DecodeTerminal(EncASCII, []byte("42"))
	if err != nil || v.U != 42 {
		t.Errorf("DecodeTerminal ascii = %v, %v", v, err)
	}
	if _, err := DecodeTerminal(EncASCII, []byte("4x")); err == nil {
		t.Error("bad ascii integer accepted")
	}
	if _, err := DecodeTerminal(EncUint, nil); err == nil {
		t.Error("empty uint accepted")
	}
}

// TestOpsInvertible is a property test: for every op pipeline, value and
// width, InvertOps(ApplyOps(v)) == v.
func TestOpsInvertible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(raw uint64, kAdd, kXor uint64, key []byte) bool {
		if len(key) == 0 {
			key = []byte{0x5A}
		}
		width := 1 << (rng.Intn(4)) // 1,2,4,8
		v := UintVal(raw & maskFor(width))
		ops := []ValueOp{
			{Kind: OpAdd, K: kAdd},
			{Kind: OpXor, K: kXor},
			{Kind: OpSub, K: kAdd ^ kXor},
		}
		enc, err := ApplyOps(ops, width, v)
		if err != nil {
			return false
		}
		dec, err := InvertOps(ops, width, enc)
		if err != nil {
			return false
		}
		if !dec.Equal(v) {
			return false
		}
		// Byte pipeline on random bytes, with add keys of one byte,
		// three bytes and more bytes than the value.
		bv := BytesVal(key)
		long := append(append([]byte(nil), key...), 0x80, 0xFF, 7)
		for _, addKey := range [][]byte{key[:1], {1, 2, 3}, long} {
			bops := []ValueOp{{Kind: OpByteAdd, KB: addKey}, {Kind: OpByteXor, KB: key}}
			benc, err := ApplyOps(bops, 0, bv)
			if err != nil {
				return false
			}
			bdec, err := InvertOps(bops, 0, benc)
			if err != nil || !bdec.Equal(bv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestInvertByteAdd pins the decode direction of OpByteAdd: the key,
// repeated, is subtracted byte by byte modulo 256.
func TestInvertByteAdd(t *testing.T) {
	op := ValueOp{Kind: OpByteAdd, KB: []byte{1, 2, 0xFF}}
	got, err := InvertOp(op, 0, BytesVal([]byte{10, 10, 10, 10, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if want := BytesVal([]byte{9, 8, 11, 9, 0xFE}); !got.Equal(want) {
		t.Errorf("InvertOp = %v, want %v", got, want)
	}
}

// TestSplitCombineInverse: CombineVals(SplitVals(v, r)) == v for all
// combine kinds, values and random material.
func TestSplitCombineInverse(t *testing.T) {
	f := func(raw, random uint64, blob []byte) bool {
		for _, kind := range []CombineKind{CombAdd, CombSub, CombXor} {
			for _, width := range []int{1, 2, 4, 8} {
				c := Combine{Kind: kind, Width: width}
				v := UintVal(raw & maskFor(width))
				l, r, err := SplitVals(c, v, random)
				if err != nil {
					return false
				}
				back, err := CombineVals(c, l, r)
				if err != nil || !back.Equal(v) {
					return false
				}
			}
		}
		if len(blob) >= 2 {
			c := Combine{Kind: CombCat, SplitAt: 1 + int(random%uint64(len(blob)-1))}
			v := BytesVal(blob)
			l, r, err := SplitVals(c, v, random)
			if err != nil {
				return false
			}
			back, err := CombineVals(c, l, r)
			if err != nil || !back.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitValsErrors(t *testing.T) {
	if _, _, err := SplitVals(Combine{Kind: CombCat, SplitAt: 5}, BytesVal([]byte("ab")), 0); err == nil {
		t.Error("short cat split accepted")
	}
	if _, _, err := SplitVals(Combine{Kind: CombAdd, Width: 2}, BytesVal([]byte("ab")), 0); err == nil {
		t.Error("arithmetic split of bytes accepted")
	}
	if _, err := CombineVals(Combine{Kind: CombCat}, UintVal(1), UintVal(2)); err == nil {
		t.Error("cat combine of ints accepted")
	}
}

func TestValEqualAndString(t *testing.T) {
	if !UintVal(5).Equal(UintVal(5)) || UintVal(5).Equal(UintVal(6)) {
		t.Error("uint equality broken")
	}
	if !BytesVal([]byte("a")).Equal(BytesVal([]byte("a"))) || BytesVal([]byte("a")).Equal(UintVal(97)) {
		t.Error("bytes equality broken")
	}
	if UintVal(7).String() != "7" || BytesVal([]byte("x")).String() != `"x"` {
		t.Error("Val.String format changed")
	}
}
