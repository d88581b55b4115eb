package adversary

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"protoobf/internal/core"
	"protoobf/internal/frame"
	"protoobf/internal/rng"
	"protoobf/internal/session"
	"protoobf/internal/session/shape"
)

// FuzzWireMutation extends the mutation campaign with fuzzer-driven
// streams: arbitrary bytes — seeded with real mutated captures from
// every strategy — fed through a session receiver's Recv path must
// error cleanly, never panic or hang. Unlike RunMutations, nothing here
// recovers: a panic is a fuzz failure the corpus will pin.
func FuzzWireMutation(f *testing.F) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 11}
	rotTx, err := core.NewRotation(Spec, opts)
	if err != nil {
		f.Fatal(err)
	}
	rot, err := core.NewRotation(Spec, opts)
	if err != nil {
		f.Fatal(err)
	}
	frames, err := baselineFrames(rotTx, 4, 11)
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: the pristine stream plus one mutant per strategy.
	f.Add(bytes.Join(frames, nil))
	r := rng.New(3)
	for _, strategy := range Strategies {
		f.Add(Mutate(frames, strategy, r))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rx, err := session.NewConn(discardWriter{bytes.NewReader(data)}, rot.View(), session.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Release()
		// Bounded: every Recv consumes at least a frame header's worth of
		// input or errors.
		for {
			if _, err := rx.Recv(); err != nil {
				return
			}
		}
	})
}

// FuzzCoverFrame targets the cover-frame discard path: streams heavy in
// KindCover frames — well-formed, length-lying, truncated, oversized and
// interleaved with real data — driven through both an unshaped and a
// shaped receiver's real Recv. Covers must vanish silently and malformed
// input must error cleanly; as in FuzzWireMutation, nothing recovers.
func FuzzCoverFrame(f *testing.F) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 11}
	rotTx, err := core.NewRotation(Spec, opts)
	if err != nil {
		f.Fatal(err)
	}
	rotPlain, err := core.NewRotation(Spec, opts)
	if err != nil {
		f.Fatal(err)
	}
	rotShaped, err := core.NewRotation(Spec, opts)
	if err != nil {
		f.Fatal(err)
	}
	frames, err := baselineFrames(rotTx, 4, 11)
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: cover bursts spliced into the real stream, a pure
	// cover train, and hand-broken covers (length lies in both
	// directions, an over-limit length word, a torn payload).
	r := rng.New(5)
	for i := 0; i < 3; i++ {
		f.Add(Mutate(frames, "coverflood", r))
	}
	cover := func(payload int, lie int) []byte {
		b := make([]byte, frame.EpochHeaderLen+payload)
		if err := frame.EncodeHeader(b[:frame.EpochHeaderLen], frame.KindCover, 0, payload); err != nil {
			f.Fatal(err)
		}
		if lie >= 0 {
			word := binary.BigEndian.Uint32(b[:4])
			binary.BigEndian.PutUint32(b[:4], word&0xFF000000|uint32(lie)&0x00FFFFFF)
		}
		return b
	}
	f.Add(bytes.Join([][]byte{cover(0, -1), cover(32, -1), cover(512, -1)}, nil))
	f.Add(append(cover(8, 200), frames[0]...))  // cover claims more than it carries
	f.Add(append(cover(200, 8), frames[0]...))  // cover claims less: tail desyncs the stream
	f.Add(cover(4, frame.MaxFrame+1))           // length word over the frame limit
	f.Add(cover(64, -1)[:frame.EpochHeaderLen]) // header promises a payload the stream ends before

	profile := shape.Profile{
		Name:   "fuzz",
		Bins:   []shape.Bin{{Lo: 64, Hi: 256, Weight: 1}},
		MTU:    256,
		MinGap: time.Microsecond,
		MaxGap: time.Millisecond,
	}
	frozen := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	f.Fuzz(func(t *testing.T, data []byte) {
		rx, err := session.NewConn(discardWriter{bytes.NewReader(data)}, rotPlain.View(), session.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := rx.Recv(); err != nil {
				break
			}
		}
		rx.Release()

		// Same bytes through a shaped receiver: covers still discard
		// before unshaping, and data frames additionally cross the
		// trailer/fragment parser. The frozen clock keeps the cover
		// scheduler off and the pacer a no-op.
		srx, err := session.NewConn(discardWriter{bytes.NewReader(data)}, rotShaped.View(), session.Options{
			Shape:      &profile,
			ShapeClock: func() time.Time { return frozen },
			ShapeSleep: func(time.Duration) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srx.Release()
		for {
			if _, err := srx.Recv(); err != nil {
				return
			}
		}
	})
}
