// Package artifact serializes compiled dialect state so a fleet of
// processes can share one compilation: a backend that needs the dialect
// for (spec, family seed, epoch) loads the transformed message graph
// from a byte blob instead of re-running the obfuscation pipeline.
//
// An artifact is keyed by (spec digest, family seed, epoch). The digest
// covers the spec source AND the obfuscation options that shape the
// transformation search (per-node budget, transformation filters), so
// two processes compiled with different configurations can never
// confuse each other's artifacts. The payload is the transformed graph
// only — the per-dialect RNG is re-derived from the seed by the loader,
// which is safe because runtime randomness feeds pad bytes and split
// halves that the parser ignores by construction.
//
// The format is a versioned binary encoding with strict decode bounds:
// decoding untrusted bytes may fail loudly but never allocates without
// limit or recurses without a depth budget.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"protoobf/internal/graph"
)

// Key identifies one compiled dialect version across processes.
type Key struct {
	// SpecDigest fingerprints the spec source and the obfuscation
	// configuration (see SpecDigest).
	SpecDigest [32]byte
	// Family is the master seed of the dialect family.
	Family int64
	// Epoch is the rotation epoch within the family.
	Epoch uint64
}

// Artifact is one serializable compiled dialect version.
type Artifact struct {
	Key Key
	// PerNode is the obfuscation budget the graph was compiled at
	// (informational — the digest already pins it).
	PerNode int
	// Applied is the number of transformations the compiler applied
	// (informational — the transformation records themselves do not
	// survive serialization, only their product does).
	Applied int
	// Graph is the transformed message graph, parse- and
	// serialize-ready.
	Graph *graph.Graph
}

// SpecDigest fingerprints a spec source plus the obfuscation options
// that influence compilation output. Seed and epoch are deliberately
// excluded — they are the other two key components.
func SpecDigest(source string, perNode int, only, exclude []string) [32]byte {
	h := sha256.New()
	h.Write([]byte("protoobf artifact spec v1\n"))
	var n [8]byte
	put := func(b []byte) {
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put([]byte(source))
	binary.BigEndian.PutUint64(n[:], uint64(perNode))
	h.Write(n[:])
	binary.BigEndian.PutUint64(n[:], uint64(len(only)))
	h.Write(n[:])
	for _, s := range only {
		put([]byte(s))
	}
	binary.BigEndian.PutUint64(n[:], uint64(len(exclude)))
	h.Write(n[:])
	for _, s := range exclude {
		put([]byte(s))
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

const (
	// artifactMagic opens every encoded artifact ("dia1": dialect
	// artifact, format 1).
	artifactMagic = 0x64696131
	// formatVersion is bumped on any incompatible layout change; old
	// blobs then miss in the store and get recompiled, never misread.
	formatVersion = 1

	// Decode bounds. A transformed telemetry-scale graph is a few KiB;
	// the caps below leave two orders of magnitude of headroom while
	// keeping hostile inputs cheap to reject.
	maxEncodedLen = 4 << 20
	maxBlobLen    = 1 << 16
	maxNodes      = 1 << 16
	maxDepth      = 200
	maxOpsPerNode = 1 << 12
	maxDim        = 1 << 24 // cap on sizes, widths, offsets, min lengths
)

// ErrCorrupt reports an artifact blob that failed structural
// validation. Loaders treat it as a cache miss worth surfacing.
var ErrCorrupt = errors.New("artifact: corrupt encoding")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Encode serializes a. The artifact's graph must be non-nil with a
// non-nil root.
func Encode(a *Artifact) ([]byte, error) {
	if a == nil || a.Graph == nil || a.Graph.Root == nil {
		return nil, errors.New("artifact: nothing to encode")
	}
	w := &writer{}
	w.u32(artifactMagic)
	w.u16(formatVersion)
	w.raw(a.Key.SpecDigest[:])
	w.u64(uint64(a.Key.Family))
	w.u64(a.Key.Epoch)
	w.u16(uint16(a.PerNode))
	w.u32(uint32(a.Applied))
	if err := w.str(a.Graph.ProtocolName); err != nil {
		return nil, err
	}
	if err := encodeNode(w, a.Graph.Root, 0); err != nil {
		return nil, err
	}
	if len(w.b) > maxEncodedLen {
		return nil, fmt.Errorf("artifact: encoding exceeds %d bytes", maxEncodedLen)
	}
	return w.b, nil
}

// Decode parses an encoded artifact and reconstructs its graph with
// parent links and ID state rebuilt. The graph must pass graph.Validate.
func Decode(data []byte) (*Artifact, error) {
	if len(data) > maxEncodedLen {
		return nil, corrupt("input %d bytes exceeds %d cap", len(data), maxEncodedLen)
	}
	r := &reader{b: data}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != artifactMagic {
		return nil, corrupt("bad magic %#x", magic)
	}
	ver, err := r.u16()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, corrupt("unsupported format version %d", ver)
	}
	a := &Artifact{}
	dig, err := r.raw(32)
	if err != nil {
		return nil, err
	}
	copy(a.Key.SpecDigest[:], dig)
	fam, err := r.u64()
	if err != nil {
		return nil, err
	}
	a.Key.Family = int64(fam)
	if a.Key.Epoch, err = r.u64(); err != nil {
		return nil, err
	}
	pn, err := r.u16()
	if err != nil {
		return nil, err
	}
	a.PerNode = int(pn)
	ap, err := r.u32()
	if err != nil {
		return nil, err
	}
	a.Applied = int(ap)
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	root, err := decodeNode(r, 0)
	if err != nil {
		return nil, err
	}
	if r.off != len(r.b) {
		return nil, corrupt("%d trailing bytes", len(r.b)-r.off)
	}
	// graph.New would stamp fresh Origins over the serialized ones;
	// build the struct directly and let Rebuild restore parent links
	// and the ID high-water mark.
	g := &graph.Graph{ProtocolName: name, Root: root}
	g.Rebuild()
	// A well-formed encoding can still describe a graph the serializer
	// and parser cannot run (a repetition without its item, a dangling
	// reference): the store is shared, so such a blob is corrupt.
	if err := g.Validate(); err != nil {
		return nil, corrupt("%v", err)
	}
	a.Graph = g
	return a, nil
}

// Node layout flag bits.
const (
	flagReversed = 1 << iota
	flagAutoFill
	flagComb
	flagPair
)

func encodeNode(w *writer, n *graph.Node, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("artifact: graph deeper than %d", maxDepth)
	}
	w.u8(uint8(n.Kind))
	if err := w.str(n.Name); err != nil {
		return err
	}
	var flags uint8
	if n.Reversed {
		flags |= flagReversed
	}
	if n.AutoFill {
		flags |= flagAutoFill
	}
	if n.Comb != nil {
		flags |= flagComb
	}
	if n.Pair != nil {
		flags |= flagPair
	}
	w.u8(flags)
	w.u8(uint8(n.Boundary.Kind))
	if err := w.dim(n.Boundary.Size); err != nil {
		return err
	}
	if err := w.bytes(n.Boundary.Delim); err != nil {
		return err
	}
	if err := w.str(n.Boundary.Ref); err != nil {
		return err
	}
	w.u8(uint8(n.Enc))
	if err := w.dim(n.MinLen); err != nil {
		return err
	}
	if err := w.str(n.Cond.Ref); err != nil {
		return err
	}
	w.u8(uint8(n.Cond.Op))
	w.u64(n.Cond.UintVal)
	if err := w.bytes(n.Cond.BytesVal); err != nil {
		return err
	}
	w.bool(n.Cond.IsBytes)
	if err := w.str(n.Origin.Name); err != nil {
		return err
	}
	w.u8(uint8(n.Origin.Role))
	if len(n.Ops) > maxOpsPerNode {
		return fmt.Errorf("artifact: %d value ops on one node", len(n.Ops))
	}
	w.u16(uint16(len(n.Ops)))
	for _, op := range n.Ops {
		w.u8(uint8(op.Kind))
		w.u64(op.K)
		if err := w.bytes(op.KB); err != nil {
			return err
		}
	}
	if n.Comb != nil {
		w.u8(uint8(n.Comb.Kind))
		if err := w.dim(n.Comb.Width); err != nil {
			return err
		}
		if err := w.dim(n.Comb.SplitAt); err != nil {
			return err
		}
	}
	if n.Pair != nil {
		if err := w.dim(n.Pair.SizeA); err != nil {
			return err
		}
		if err := w.dim(n.Pair.SizeB); err != nil {
			return err
		}
	}
	if len(n.Children) > maxNodes {
		return fmt.Errorf("artifact: %d children on one node", len(n.Children))
	}
	w.u16(uint16(len(n.Children)))
	for _, c := range n.Children {
		if err := encodeNode(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func decodeNode(r *reader, depth int) (*graph.Node, error) {
	if depth > maxDepth {
		return nil, corrupt("graph deeper than %d", maxDepth)
	}
	r.nodes++
	if r.nodes > maxNodes {
		return nil, corrupt("more than %d nodes", maxNodes)
	}
	n := &graph.Node{}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	n.Kind = graph.Kind(kind)
	if n.Name, err = r.str(); err != nil {
		return nil, err
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags&^uint8(flagReversed|flagAutoFill|flagComb|flagPair) != 0 {
		return nil, corrupt("unknown node flags %#x", flags)
	}
	n.Reversed = flags&flagReversed != 0
	n.AutoFill = flags&flagAutoFill != 0
	bk, err := r.u8()
	if err != nil {
		return nil, err
	}
	n.Boundary.Kind = graph.BoundaryKind(bk)
	if n.Boundary.Size, err = r.dim(); err != nil {
		return nil, err
	}
	if n.Boundary.Delim, err = r.bytes(); err != nil {
		return nil, err
	}
	if n.Boundary.Ref, err = r.str(); err != nil {
		return nil, err
	}
	enc, err := r.u8()
	if err != nil {
		return nil, err
	}
	n.Enc = graph.Enc(enc)
	if n.MinLen, err = r.dim(); err != nil {
		return nil, err
	}
	if n.Cond.Ref, err = r.str(); err != nil {
		return nil, err
	}
	op, err := r.u8()
	if err != nil {
		return nil, err
	}
	n.Cond.Op = graph.CondOp(op)
	if n.Cond.UintVal, err = r.u64(); err != nil {
		return nil, err
	}
	if n.Cond.BytesVal, err = r.bytes(); err != nil {
		return nil, err
	}
	if n.Cond.IsBytes, err = r.bool(); err != nil {
		return nil, err
	}
	if n.Origin.Name, err = r.str(); err != nil {
		return nil, err
	}
	role, err := r.u8()
	if err != nil {
		return nil, err
	}
	n.Origin.Role = graph.Role(role)
	nOps, err := r.u16()
	if err != nil {
		return nil, err
	}
	if int(nOps) > maxOpsPerNode {
		return nil, corrupt("%d value ops on one node", nOps)
	}
	for i := 0; i < int(nOps); i++ {
		var vo graph.ValueOp
		k, err := r.u8()
		if err != nil {
			return nil, err
		}
		vo.Kind = graph.OpKind(k)
		if vo.K, err = r.u64(); err != nil {
			return nil, err
		}
		if vo.KB, err = r.bytes(); err != nil {
			return nil, err
		}
		n.Ops = append(n.Ops, vo)
	}
	if flags&flagComb != 0 {
		n.Comb = &graph.Combine{}
		ck, err := r.u8()
		if err != nil {
			return nil, err
		}
		n.Comb.Kind = graph.CombineKind(ck)
		if n.Comb.Width, err = r.dim(); err != nil {
			return nil, err
		}
		if n.Comb.SplitAt, err = r.dim(); err != nil {
			return nil, err
		}
	}
	if flags&flagPair != 0 {
		n.Pair = &graph.RepPair{}
		if n.Pair.SizeA, err = r.dim(); err != nil {
			return nil, err
		}
		if n.Pair.SizeB, err = r.dim(); err != nil {
			return nil, err
		}
	}
	nKids, err := r.u16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nKids); i++ {
		c, err := decodeNode(r, depth+1)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

// writer is a bounds-checking big-endian append encoder.
type writer struct {
	b []byte
}

func (w *writer) raw(p []byte) { w.b = append(w.b, p...) }
func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) bytes(p []byte) error {
	if len(p) >= maxBlobLen {
		return fmt.Errorf("artifact: blob of %d bytes exceeds %d cap", len(p), maxBlobLen-1)
	}
	w.u16(uint16(len(p)))
	w.raw(p)
	return nil
}

func (w *writer) str(s string) error { return w.bytes([]byte(s)) }

// dim encodes a non-negative structural dimension (size, width,
// offset) with a sanity cap.
func (w *writer) dim(v int) error {
	if v < 0 || v > maxDim {
		return fmt.Errorf("artifact: dimension %d outside [0, %d]", v, maxDim)
	}
	w.u32(uint32(v))
	return nil
}

// reader is the matching bounds-checked decoder.
type reader struct {
	b     []byte
	off   int
	nodes int
}

func (r *reader) take(n int) ([]byte, error) {
	if len(r.b)-r.off < n {
		return nil, corrupt("truncated at offset %d (need %d bytes)", r.off, n)
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p, nil
}

func (r *reader) raw(n int) ([]byte, error) { return r.take(n) }

func (r *reader) u8() (uint8, error) {
	p, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (r *reader) u16() (uint16, error) {
	p, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(p), nil
}

func (r *reader) u32() (uint32, error) {
	p, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(p), nil
}

func (r *reader) u64() (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(p), nil
}

func (r *reader) bool() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, corrupt("bool byte %d", v)
	}
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	p, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, p)
	return out, nil
}

func (r *reader) str() (string, error) {
	p, err := r.bytes()
	if err != nil {
		return "", err
	}
	return string(p), nil
}

func (r *reader) dim() (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	if v > maxDim {
		return 0, corrupt("dimension %d exceeds %d", v, maxDim)
	}
	return int(v), nil
}
