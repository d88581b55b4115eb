package session

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"protoobf/internal/core"
	"protoobf/internal/frame"
)

// discardWriter adapts a reader-only fuzz stream into the io.ReadWriter
// NewConn expects; writes vanish.
type discardWriter struct{ io.Reader }

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// FuzzSessionRecv feeds arbitrary byte streams to a session receiver:
// malformed, truncated or cross-dialect frames must surface errors, never
// panic or hang. The loop is bounded because every frame consumes at
// least a header's worth of input.
func FuzzSessionRecv(f *testing.F) {
	proto, err := core.Compile(beaconSpec, core.ObfuscationOptions{PerNode: 2, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: a valid frame, its truncations, a huge length, and an
	// unknown-epoch frame.
	valid := &bytes.Buffer{}
	tr := NewTransport(valid)
	if err := tr.SendPayload([]byte("not a beacon")); err != nil {
		f.Fatal(err)
	}
	vb := valid.Bytes()
	f.Add(vb)
	f.Add(vb[:len(vb)-3])
	f.Add(vb[:frame.EpochHeaderLen-2])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(append([]byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9}, 'h', 'i'))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewConn(discardWriter{bytes.NewReader(data)}, Fixed(proto.Graph), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := c.Recv(); err != nil {
				break
			}
		}
	})
}

// FuzzTransportRecv exercises the frame layer alone with buffer reuse
// across frames.
func FuzzTransportRecv(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTransport(discardWriter{bytes.NewReader(data)})
		buf := frame.GetBuffer()
		defer frame.PutBuffer(buf)
		for {
			out, _, err := tr.RecvPayload(buf[:0])
			if err != nil {
				break
			}
			buf = out
		}
	})
}

// FuzzControlFrame fuzzes the rekey control-frame parser directly:
// arbitrary (kind, header epoch, payload) triples — the exact surface a
// peer controls after the transport framing — must be cleanly accepted
// or rejected, never panic, and never corrupt the session (a second
// dispatch of anything must still be safe). The versioner is a real
// rotation view, so accepted proposals exercise the full unmask →
// magic-check → plausibility → apply → compile → ack path.
func FuzzControlFrame(f *testing.F) {
	rot, err := core.NewRotation(beaconSpec, core.ObfuscationOptions{Seed: 7})
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: a correctly masked proposal and ack for epoch 1 (the
	// golden path), the same bytes unmasked (wrong-family forgery), a
	// short payload, an oversized one, and unknown kinds.
	seedView := rot.View()
	mkControl := func(from uint64, seed int64) []byte {
		p := make([]byte, controlLen)
		binary.BigEndian.PutUint32(p[:4], controlMagic)
		binary.BigEndian.PutUint64(p[4:12], from)
		binary.BigEndian.PutUint64(p[12:20], uint64(seed))
		pad := seedView.ControlPad(from-1, controlLen)
		for i := range p {
			p[i] ^= pad[i]
		}
		return p
	}
	f.Add(byte(frame.KindRekeyPropose), uint64(0), mkControl(1, 0x5EED))
	f.Add(byte(frame.KindRekeyAck), uint64(0), mkControl(1, 0x5EED))
	f.Add(byte(frame.KindRekeyPropose), uint64(0), func() []byte {
		p := make([]byte, controlLen)
		binary.BigEndian.PutUint32(p[:4], controlMagic)
		binary.BigEndian.PutUint64(p[4:12], 1)
		return p
	}())
	f.Add(byte(frame.KindRekeyPropose), uint64(3), []byte{1, 2, 3})
	f.Add(byte(frame.KindRekeyAck), uint64(9), make([]byte, controlLen+5))
	f.Add(byte(0x7F), uint64(0), mkControl(2, -1))

	f.Fuzz(func(t *testing.T, kind byte, hdrEpoch uint64, payload []byte) {
		// Fresh view per run: rekey state must not leak across inputs
		// (the corpus would otherwise order-depend), while compiled
		// dialects stay shared in the rotation's cache.
		c, err := NewConn(discardWriter{bytes.NewReader(nil)}, rot.View(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// handleControl mutates payload in place (unmasking); hand it a
		// copy so the second dispatch below sees the original bytes.
		p1 := append([]byte(nil), payload...)
		err1 := c.handleControl(kind, hdrEpoch, p1)
		if len(payload) != controlLen && err1 == nil {
			t.Fatalf("payload of %d bytes accepted, want %d", len(payload), controlLen)
		}
		// Whatever the first dispatch did, the session must survive a
		// replay of the same frame (duplicate delivery) and keep working.
		p2 := append([]byte(nil), payload...)
		_ = c.handleControl(kind, hdrEpoch, p2)
		if _, err := c.NewMessage(); err != nil {
			t.Fatalf("session unusable after control frames: %v", err)
		}
	})
}
