package graph

import (
	"fmt"
	"strconv"
)

// Val is a terminal value in user space: either an unsigned integer
// (EncUint, EncASCII) or raw bytes (EncBytes).
type Val struct {
	U       uint64
	B       []byte
	IsBytes bool
}

// UintVal wraps an integer value.
func UintVal(u uint64) Val { return Val{U: u} }

// BytesVal wraps a byte value. The slice is not copied.
func BytesVal(b []byte) Val { return Val{B: b, IsBytes: true} }

// Equal compares two values.
func (v Val) Equal(o Val) bool {
	if v.IsBytes != o.IsBytes {
		return false
	}
	if v.IsBytes {
		return string(v.B) == string(o.B)
	}
	return v.U == o.U
}

func (v Val) String() string {
	if v.IsBytes {
		return fmt.Sprintf("%q", string(v.B))
	}
	return strconv.FormatUint(v.U, 10)
}

// maskFor returns the modulus mask for a byte width.
func maskFor(width int) uint64 {
	if width >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * width)) - 1
}

// EncodeUintBE encodes u big-endian on width bytes.
func EncodeUintBE(u uint64, width int) []byte {
	out := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		out[i] = byte(u)
		u >>= 8
	}
	return out
}

// DecodeUintBE decodes a big-endian unsigned integer.
func DecodeUintBE(b []byte) uint64 {
	var u uint64
	for _, c := range b {
		u = u<<8 | uint64(c)
	}
	return u
}

// EncodeTerminal converts a user value to wire bytes for a terminal with
// encoding enc and (for EncUint) fixed width.
func EncodeTerminal(enc Enc, width int, v Val) ([]byte, error) {
	switch enc {
	case EncBytes:
		if !v.IsBytes {
			return nil, fmt.Errorf("value %v is not bytes", v)
		}
		return append([]byte(nil), v.B...), nil
	case EncUint:
		if v.IsBytes {
			return nil, fmt.Errorf("value %v is not an integer", v)
		}
		if width < 8 && v.U > maskFor(width) {
			return nil, fmt.Errorf("value %d overflows %d-byte field", v.U, width)
		}
		return EncodeUintBE(v.U, width), nil
	case EncASCII:
		if v.IsBytes {
			return nil, fmt.Errorf("value %v is not an integer", v)
		}
		return []byte(strconv.FormatUint(v.U, 10)), nil
	default:
		return nil, fmt.Errorf("unknown encoding %v", enc)
	}
}

// DecodeTerminal converts wire bytes back to a user value.
func DecodeTerminal(enc Enc, b []byte) (Val, error) {
	switch enc {
	case EncBytes:
		return BytesVal(append([]byte(nil), b...)), nil
	case EncUint:
		if len(b) == 0 || len(b) > 8 {
			return Val{}, fmt.Errorf("uint field with %d bytes", len(b))
		}
		return UintVal(DecodeUintBE(b)), nil
	case EncASCII:
		u, err := strconv.ParseUint(string(b), 10, 64)
		if err != nil {
			return Val{}, fmt.Errorf("ascii integer %q: %w", string(b), err)
		}
		return UintVal(u), nil
	default:
		return Val{}, fmt.Errorf("unknown encoding %v", enc)
	}
}

// ApplyOp transforms v in the encode (user -> wire) direction.
func ApplyOp(op ValueOp, width int, v Val) (Val, error) {
	switch op.Kind {
	case OpAdd, OpSub, OpXor:
		if v.IsBytes {
			return Val{}, fmt.Errorf("integer op %v on bytes value", op.Kind)
		}
		mask := maskFor(width)
		switch op.Kind {
		case OpAdd:
			return UintVal((v.U + op.K) & mask), nil
		case OpSub:
			return UintVal((v.U - op.K) & mask), nil
		default:
			return UintVal((v.U ^ op.K) & mask), nil
		}
	case OpByteAdd, OpByteXor:
		return byteOp(op, v, false)
	default:
		return Val{}, fmt.Errorf("unknown op %v", op.Kind)
	}
}

// byteOp adds or XORs op's key, repeated, into a copy of v's bytes;
// with sub an OpByteAdd subtracts the key instead (its inverse).
func byteOp(op ValueOp, v Val, sub bool) (Val, error) {
	if !v.IsBytes {
		return Val{}, fmt.Errorf("byte op %v on integer value", op.Kind)
	}
	if len(op.KB) == 0 {
		return Val{}, fmt.Errorf("byte op %v with empty key", op.Kind)
	}
	out := make([]byte, len(v.B))
	for i, c := range v.B {
		k := op.KB[i%len(op.KB)]
		switch {
		case op.Kind == OpByteXor:
			out[i] = c ^ k
		case sub:
			out[i] = c - k
		default:
			out[i] = c + k
		}
	}
	return BytesVal(out), nil
}

// InvertOp transforms v in the decode (wire -> user) direction.
func InvertOp(op ValueOp, width int, v Val) (Val, error) {
	inv := op
	switch op.Kind {
	case OpAdd:
		inv.Kind = OpSub
	case OpSub:
		inv.Kind = OpAdd
	case OpXor, OpByteXor:
		// self-inverse
	case OpByteAdd:
		return byteOp(op, v, true)
	default:
		return Val{}, fmt.Errorf("unknown op %v", op.Kind)
	}
	return ApplyOp(inv, width, v)
}

// ApplyOps runs the full encode-direction pipeline.
func ApplyOps(ops []ValueOp, width int, v Val) (Val, error) {
	var err error
	for _, op := range ops {
		if v, err = ApplyOp(op, width, v); err != nil {
			return Val{}, err
		}
	}
	return v, nil
}

// InvertOps runs the full decode-direction pipeline (reverse order).
func InvertOps(ops []ValueOp, width int, v Val) (Val, error) {
	var err error
	for i := len(ops) - 1; i >= 0; i-- {
		if v, err = InvertOp(ops[i], width, v); err != nil {
			return Val{}, err
		}
	}
	return v, nil
}

// CombineVals recombines the two halves of a split into the original
// (post-Ops) value, in the decode direction.
func CombineVals(c Combine, left, right Val) (Val, error) {
	switch c.Kind {
	case CombAdd, CombSub, CombXor:
		if left.IsBytes || right.IsBytes {
			return Val{}, fmt.Errorf("arithmetic combine on bytes halves")
		}
		mask := maskFor(c.Width)
		switch c.Kind {
		case CombAdd:
			return UintVal((left.U + right.U) & mask), nil
		case CombSub:
			return UintVal((left.U - right.U) & mask), nil
		default:
			return UintVal((left.U ^ right.U) & mask), nil
		}
	case CombCat:
		if !left.IsBytes || !right.IsBytes {
			return Val{}, fmt.Errorf("concatenation combine on integer halves")
		}
		out := make([]byte, 0, len(left.B)+len(right.B))
		out = append(out, left.B...)
		out = append(out, right.B...)
		return BytesVal(out), nil
	default:
		return Val{}, fmt.Errorf("unknown combine %v", c.Kind)
	}
}

// SplitVals decomposes v into two halves in the encode direction, using
// random material r (for arithmetic splits). CombineVals inverts it:
// CombineVals(c, l, r) == v for every r.
func SplitVals(c Combine, v Val, random uint64) (left, right Val, err error) {
	switch c.Kind {
	case CombAdd:
		if v.IsBytes {
			return Val{}, Val{}, fmt.Errorf("arithmetic split on bytes value")
		}
		mask := maskFor(c.Width)
		l := random & mask
		return UintVal(l), UintVal((v.U - l) & mask), nil
	case CombSub:
		if v.IsBytes {
			return Val{}, Val{}, fmt.Errorf("arithmetic split on bytes value")
		}
		mask := maskFor(c.Width)
		r := random & mask
		return UintVal((v.U + r) & mask), UintVal(r), nil
	case CombXor:
		if v.IsBytes {
			return Val{}, Val{}, fmt.Errorf("arithmetic split on bytes value")
		}
		mask := maskFor(c.Width)
		l := random & mask
		return UintVal(l), UintVal((v.U ^ l) & mask), nil
	case CombCat:
		if !v.IsBytes {
			return Val{}, Val{}, fmt.Errorf("concatenation split on integer value")
		}
		if len(v.B) < c.SplitAt {
			return Val{}, Val{}, fmt.Errorf("value of %d bytes too short to split at %d", len(v.B), c.SplitAt)
		}
		return BytesVal(append([]byte(nil), v.B[:c.SplitAt]...)),
			BytesVal(append([]byte(nil), v.B[c.SplitAt:]...)), nil
	default:
		return Val{}, Val{}, fmt.Errorf("unknown combine %v", c.Kind)
	}
}
