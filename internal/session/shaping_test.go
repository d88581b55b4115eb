package session

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"protoobf/internal/core"
	"protoobf/internal/frame"
	"protoobf/internal/metrics"
	"protoobf/internal/msgtree"
	"protoobf/internal/rng"
	"protoobf/internal/session/shape"
	"protoobf/internal/wire"
)

// fakeShapeClock is the deterministic time source the shaped tests
// inject: Sleep advances the clock by exactly the requested delay, so
// pacing "happens" with zero real waiting.
type fakeShapeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeShapeClock() *fakeShapeClock {
	return &fakeShapeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeShapeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeShapeClock) Sleep(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// shapedOpts builds the session options of one shaped peer on a shared
// fake clock.
func shapedOpts(p shape.Profile, clk *fakeShapeClock, stats *metrics.ShapeCounters) Options {
	return Options{Shape: &p, ShapeClock: clk.Now, ShapeSleep: clk.Sleep, ShapeStats: stats}
}

// TestShapedRoundtrip sends every differential spec's messages through a
// shaped pair and checks the padding is invisible to the application:
// trees come back equal, frames were morphed, pad was actually added.
func TestShapedRoundtrip(t *testing.T) {
	for _, tc := range specCases {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.ObfuscationOptions{PerNode: 2, Seed: 31}
			rotA, err := core.NewRotation(tc.spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			rotB, err := core.NewRotation(tc.spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			clk := newFakeShapeClock()
			var sa, sb metrics.ShapeCounters
			a, b, err := Pair(rotA.View(), rotB.View(),
				shapedOpts(shape.Default(), clk, &sa), shapedOpts(shape.Default(), clk, &sb))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Release()
			defer b.Release()
			r := rng.New(5)
			for i := 0; i < 20; i++ {
				exchange(t, a, b, tc.build, r)
				exchange(t, b, a, tc.build, r)
			}
			got := sa.Snapshot()
			if got.ShapedFrames < 20 {
				t.Fatalf("a shaped %d frames, want >= 20", got.ShapedFrames)
			}
			if got.PadBytes == 0 {
				t.Fatal("a shaped frames with zero pad — the default profile should pad small messages")
			}
			if got.UnshapeRejects != 0 {
				t.Fatalf("a counted %d unshape rejects on a healthy stream", got.UnshapeRejects)
			}
		})
	}
}

// TestShapedFragmentation drives a message well past the profile MTU and
// checks it is split, reassembled, and counted.
func TestShapedFragmentation(t *testing.T) {
	rotA, rotB := newTestRotations(t, 37)
	clk := newFakeShapeClock()
	prof := shape.Profile{
		Name:   "tiny-mtu",
		Bins:   []shape.Bin{{Lo: 32, Hi: 64, Weight: 1}},
		MTU:    64,
		MinGap: time.Microsecond,
		MaxGap: 10 * time.Microsecond,
	}
	var sa, sb metrics.ShapeCounters
	a, b, err := Pair(rotA.View(), rotB.View(),
		shapedOpts(prof, clk, &sa), shapedOpts(prof, clk, &sb))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	defer b.Release()
	r := rng.New(9)
	big := func(s *msgtree.Scope, r *rng.R) error {
		if err := s.SetUint("device", 7); err != nil {
			return err
		}
		if err := s.SetUint("seqno", 1); err != nil {
			return err
		}
		if err := s.SetBytes("status", r.PadBytes(10)); err != nil {
			return err
		}
		return s.SetBytes("sig", r.Bytes(500)) // ~9 fragments at MTU 64
	}
	for i := 0; i < 5; i++ {
		exchange(t, a, b, big, r)
	}
	got := sa.Snapshot()
	if got.Fragments == 0 {
		t.Fatal("500-byte messages through a 64-byte MTU produced no fragments")
	}
	if rx := sb.Snapshot(); rx.UnshapeRejects != 0 {
		t.Fatalf("receiver counted %d unshape rejects", rx.UnshapeRejects)
	}
}

// TestRecvKindByteRange is the full kind-byte regression table: every
// possible kind byte 0x00..0xFF is fed to a live session. Data decodes
// (or rejects malformed payloads), known control kinds reject garbage
// loudly, covers vanish silently, and every kind above frame.KindMax is
// rejected with the counted unknown-kind error — never a hang, never a
// crash, never a silently skipped frame.
func TestRecvKindByteRange(t *testing.T) {
	rotA, rotB := newTestRotations(t, 53)
	var stats metrics.ShapeCounters
	a, b := resumePair(t, rotA, rotB, Options{ShapeStats: &stats}, Options{})
	r := rng.New(3)
	wantUnknown := uint64(0)
	for kind := 0; kind < 256; kind++ {
		k := byte(kind)
		switch {
		case k == frame.KindData:
			// A 1-byte payload cannot satisfy any differential spec:
			// the reject must be a parse error, not a hang.
			if err := b.t.sendFrameAt(k, 0, r.Bytes(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Recv(); err == nil {
				t.Fatalf("kind %#02x: malformed data frame decoded", k)
			}
		case k == frame.KindCover:
			// Silently discarded — prove Recv moved past it by letting a
			// real message follow.
			if err := b.t.sendFrameAt(k, 0, r.Bytes(32)); err != nil {
				t.Fatal(err)
			}
			exchange(t, b, a, specCases[0].build, r)
		case k <= frame.KindMax:
			// Assigned control kinds must reject garbage payloads.
			if err := b.t.sendFrameAt(k, 0, r.Bytes(16)); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Recv(); err == nil {
				t.Fatalf("kind %#02x: garbage control frame accepted", k)
			}
		default:
			if err := b.t.sendFrameAt(k, 0, r.Bytes(16)); err != nil {
				t.Fatal(err)
			}
			_, err := a.Recv()
			if err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
				t.Fatalf("kind %#02x: err = %v, want an unknown-kind reject", k, err)
			}
			wantUnknown++
		}
	}
	got := stats.Snapshot()
	if got.UnknownKindRejects != wantUnknown {
		t.Fatalf("UnknownKindRejects = %d, want %d", got.UnknownKindRejects, wantUnknown)
	}
	if got.CoverDropped != 1 {
		t.Fatalf("CoverDropped = %d, want 1", got.CoverDropped)
	}
}

// TestCoversNeverSurface exercises the idle scheduler between shaped
// peers: covers are emitted only past the idle threshold, are consumed
// by Recv without ever becoming application messages, and are counted
// on both ends.
func TestCoversNeverSurface(t *testing.T) {
	rotA, rotB := newTestRotations(t, 59)
	clk := newFakeShapeClock()
	prof := shape.Default()
	var sa, sb metrics.ShapeCounters
	a, b, err := Pair(rotA.View(), rotB.View(),
		shapedOpts(prof, clk, &sa), shapedOpts(prof, clk, &sb))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	defer b.Release()
	r := rng.New(8)

	if sent, err := a.emitCoverIfIdle(); err != nil || sent {
		t.Fatalf("cover before the idle threshold: sent=%v err=%v", sent, err)
	}
	const covers = 5
	for i := 0; i < covers; i++ {
		clk.Sleep(prof.CoverIdle)
		sent, err := a.emitCoverIfIdle()
		if err != nil {
			t.Fatal(err)
		}
		if !sent {
			t.Fatalf("cover %d: idle session emitted nothing", i)
		}
	}
	// The real message behind the covers is what Recv must deliver.
	exchange(t, a, b, specCases[0].build, r)
	if got := sa.Snapshot().CoverSent; got != covers {
		t.Fatalf("CoverSent = %d, want %d", got, covers)
	}
	if got := sb.Snapshot().CoverDropped; got != covers {
		t.Fatalf("CoverDropped = %d, want %d", got, covers)
	}
}

// TestCoverCompatibleWithUnshapedPeer is the backward-compatibility half
// of the cover contract: an unmodified (unshaped) receiver discards a
// shaped peer's covers and keeps decoding.
func TestCoverCompatibleWithUnshapedPeer(t *testing.T) {
	rotA, rotB := newTestRotations(t, 61)
	clk := newFakeShapeClock()
	var sa, sb metrics.ShapeCounters
	a, b, err := Pair(rotA.View(), rotB.View(),
		shapedOpts(shape.Default(), clk, &sa), Options{ShapeStats: &sb})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	defer b.Release()
	clk.Sleep(shape.Default().CoverIdle)
	if sent, err := a.emitCoverIfIdle(); err != nil || !sent {
		t.Fatalf("cover emission: sent=%v err=%v", sent, err)
	}
	// Shaping is symmetric, so a's shaped data frames would not parse on
	// unshaped b — send one unshaped frame past the cover instead.
	m, err := a.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	if err := specCases[0].build(m.Scope(), r); err != nil {
		t.Fatal(err)
	}
	out, err := wire.SerializeAppend(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.t.sendPayloadAt(a.Epoch(), out); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatalf("unshaped peer choked on a cover frame: %v", err)
	}
	if got := sb.Snapshot().CoverDropped; got != 1 {
		t.Fatalf("unshaped peer CoverDropped = %d, want 1", got)
	}
}

// TestShapedPacingPreservesOrder: jitter delays frames but never reorders
// them — 50 sequenced messages arrive in sequence — and the pacer
// actually injected delay (the clock moved).
func TestShapedPacingPreservesOrder(t *testing.T) {
	rotA, rotB := newTestRotations(t, 67)
	clk := newFakeShapeClock()
	start := clk.Now()
	var sa, sb metrics.ShapeCounters
	a, b, err := Pair(rotA.View(), rotB.View(),
		shapedOpts(shape.Default(), clk, &sa), shapedOpts(shape.Default(), clk, &sb))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	defer b.Release()
	for i := 0; i < 50; i++ {
		m, err := a.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		s := m.Scope()
		if err := s.SetUint("device", 1); err != nil {
			t.Fatal(err)
		}
		if err := s.SetUint("seqno", uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.SetBytes("status", []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := s.SetBytes("sig", nil); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := got.Scope().GetUint("seqno")
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("message %d arrived with seqno %d — pacing reordered the stream", i, seq)
		}
	}
	if sa.Snapshot().DelayNanos == 0 {
		t.Fatal("50 back-to-back sends paid no pacing delay")
	}
	if !clk.Now().After(start) {
		t.Fatal("the injected clock never moved — pacing did not engage")
	}
}

// TestUnshapeRejectsMalformedTrailer: a shaped receiver rejects (and
// counts) frames whose shaping trailer is truncated, flag-corrupted or
// lying about its overhead — without wedging the session.
func TestUnshapeRejectsMalformedTrailer(t *testing.T) {
	rotA, rotB := newTestRotations(t, 71)
	clk := newFakeShapeClock()
	var sa metrics.ShapeCounters
	a, b, err := Pair(rotA.View(), rotB.View(),
		shapedOpts(shape.Default(), clk, &sa), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	defer b.Release()
	bad := [][]byte{
		{0xAB, 0xCD},             // shorter than the trailer
		{0x41, 0x00, 0x00, 0x04}, // reserved flag bit set
		{0x00, 0x00, 0x00, 0x00}, // overhead below the trailer itself
		{0x00, 0x00, 0x00, 0x09}, // overhead above the frame
	}
	for i, p := range bad {
		if err := b.t.sendFrameAt(frame.KindData, 0, p); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(); err == nil {
			t.Fatalf("case %d: malformed trailer %x accepted", i, p)
		}
	}
	if got := sa.Snapshot().UnshapeRejects; got != uint64(len(bad)) {
		t.Fatalf("UnshapeRejects = %d, want %d", got, len(bad))
	}
}

// TestUnshapeRejectsEpochTornFragments: a fragment stream must complete
// in the epoch it started — a fragment under a different epoch is a
// framing violation, rejected and counted.
func TestUnshapeRejectsEpochTornFragments(t *testing.T) {
	rotA, rotB := newTestRotations(t, 73)
	clk := newFakeShapeClock()
	var sa metrics.ShapeCounters
	a, b, err := Pair(rotA.View(), rotB.View(),
		shapedOpts(shape.Default(), clk, &sa), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	defer b.Release()
	r := rng.New(6)
	frag := shape.AppendTrailer(r.Bytes(16), 0, true)  // epoch-0 fragment, more set
	tail := shape.AppendTrailer(r.Bytes(16), 0, false) // completion... at epoch 1
	if err := b.t.sendFrameAt(frame.KindData, 0, frag); err != nil {
		t.Fatal(err)
	}
	if err := b.t.sendFrameAt(frame.KindData, 1, tail); err != nil {
		t.Fatal(err)
	}
	_, err = a.Recv()
	if err == nil || !strings.Contains(err.Error(), "fragment") {
		t.Fatalf("err = %v, want an epoch-torn fragment reject", err)
	}
	if got := sa.Snapshot().UnshapeRejects; got != 1 {
		t.Fatalf("UnshapeRejects = %d, want 1", got)
	}
}

// TestShapedResumePreservesProfile: a shaped session that rekeyed and
// rotated is exported and resumed on a fresh stream; the resumed session
// keeps shaping (messages flow both ways), and the per-epoch derived
// shape picks up exactly where the exported one left off, because it
// re-derives from the restored rekey lineage.
func TestShapedResumePreservesProfile(t *testing.T) {
	rotA, rotB := newTestRotations(t, 79)
	clk := newFakeShapeClock()
	prof := shape.Default()
	var sa, sb metrics.ShapeCounters
	aopts := shapedOpts(prof, clk, &sa)
	bopts := shapedOpts(prof, clk, &sb)
	a, b := resumePair(t, rotA, rotB, aopts, bopts)
	r := rng.New(17)
	build := specCases[0].build

	exchange(t, a, b, build, r)
	if _, err := a.Rekey(0x5EED); err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b, build, r) // b acks
	exchange(t, b, a, build, r) // a completes
	for i := 0; i < 3; i++ {
		if _, err := a.Rotate(); err != nil {
			t.Fatal(err)
		}
		exchange(t, a, b, build, r)
	}
	epoch := a.Epoch()

	// The shape the exporter would use at its current epoch.
	a.shaper.mu.Lock()
	want := a.shaper.samplerLocked(epoch).Profile()
	a.shaper.mu.Unlock()

	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := newPipe()
	var sa2, sb2 metrics.ShapeCounters
	b2opts := shapedOpts(prof, clk, &sb2)
	b2, err := NewConn(cb, rotB.View(), b2opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release()
	a2opts := shapedOpts(prof, clk, &sa2)
	a2, err := ResumeConn(ca, rotA.View(), a2opts, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()

	a2.shaper.mu.Lock()
	got := a2.shaper.samplerLocked(a2.Epoch()).Profile()
	a2.shaper.mu.Unlock()
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("resumed shape diverged:\n  exported: %+v\n  resumed:  %+v", want, got)
	}

	exchange(t, a2, b2, build, r)
	exchange(t, b2, a2, build, r)
	if sa2.Snapshot().ShapedFrames == 0 {
		t.Fatal("resumed session sent unshaped frames")
	}
}

// TestShapedCoverBeforeResume: a freshly dialled shaped acceptor whose
// idle cover leaves before the resume frame arrives still accepts the
// resume — a cover is chaff, not traffic, so it does not make the
// session established — and afterwards both peers' odometers agree,
// because covers count on neither side.
func TestShapedCoverBeforeResume(t *testing.T) {
	rotA, rotB := newTestRotations(t, 83)
	clk := newFakeShapeClock()
	prof := shape.Default()
	var sa, sb metrics.ShapeCounters
	a, b := resumePair(t, rotA, rotB, shapedOpts(prof, clk, &sa), shapedOpts(prof, clk, &sb))
	r := rng.New(23)
	build := specCases[0].build
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)
	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}

	ca, cb := newPipe()
	b2, err := NewConn(cb, rotB.View(), shapedOpts(prof, clk, &sb))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release()
	clk.Sleep(prof.CoverIdle)
	if sent, err := b2.emitCoverIfIdle(); err != nil || !sent {
		t.Fatalf("acceptor cover before resume: sent=%v err=%v", sent, err)
	}
	a2, err := ResumeConn(ca, rotA.View(), shapedOpts(prof, clk, &sa), ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	exchange(t, a2, b2, build, r) // b2 adopts the ticket, then decodes
	exchange(t, b2, a2, build, r) // a2 drops the cover, reads the ack, decodes
	if ma, mb := a2.BytesMoved(), b2.BytesMoved(); ma != mb {
		t.Fatalf("odometers disagree after resume: resumed %d, acceptor %d", ma, mb)
	}
}

// TestShapedSoak runs 64 concurrent shaped sessions on the real clock
// (microsecond gaps, live cover goroutines), each mixing rekeys, epoch
// rotation and a mid-life migration — the -race workout for the whole
// shaping plane.
func TestShapedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	prof := shape.Profile{
		Name:      "soak",
		Bins:      []shape.Bin{{Lo: 16, Hi: 96, Weight: 2}, {Lo: 97, Hi: 160, Weight: 1}},
		MTU:       160,
		MinGap:    time.Microsecond,
		MaxGap:    5 * time.Microsecond,
		CoverIdle: time.Millisecond,
	}
	const sessions = 64
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- soakSession(int64(100+i), prof)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// soakSession is one shaped session lifetime: exchange, rekey, rotate,
// migrate, exchange again. It runs on the production clock and returns
// the first error.
func soakSession(seed int64, prof shape.Profile) error {
	opts := core.ObfuscationOptions{PerNode: 1, Seed: seed}
	rotA, err := core.NewRotation(pingSpec, opts)
	if err != nil {
		return err
	}
	rotB, err := core.NewRotation(pingSpec, opts)
	if err != nil {
		return err
	}
	var sa, sb metrics.ShapeCounters
	aopts := Options{Shape: &prof, ShapeStats: &sa}
	bopts := Options{Shape: &prof, ShapeStats: &sb}
	a, b, err := Pair(rotA.View(), rotB.View(), aopts, bopts)
	if err != nil {
		return err
	}
	r := rng.New(seed)
	ping := func(from, to *Conn) error {
		m, err := from.NewMessage()
		if err != nil {
			return err
		}
		s := m.Scope()
		if err := s.SetUint("a", uint64(r.Intn(1<<16))); err != nil {
			return err
		}
		if err := s.SetUint("b", uint64(r.Intn(1<<30))); err != nil {
			return err
		}
		if err := s.SetBytes("payload", r.Bytes(8)); err != nil {
			return err
		}
		if err := from.Send(m); err != nil {
			return err
		}
		_, err = to.Recv()
		return err
	}
	for i := 0; i < 8; i++ {
		if err := ping(a, b); err != nil {
			return fmt.Errorf("seed %d ping %d: %w", seed, i, err)
		}
		if err := ping(b, a); err != nil {
			return fmt.Errorf("seed %d pong %d: %w", seed, i, err)
		}
		if i == 2 {
			if _, err := a.Rekey(seed ^ 0x7EED); err != nil {
				return err
			}
		}
		if i == 5 {
			if _, err := a.Rotate(); err != nil {
				return err
			}
		}
	}
	ticket, err := a.Export()
	if err != nil {
		return err
	}
	a.Release()
	b.Release()
	ca, cb := newPipe()
	b2, err := NewConn(cb, rotB.View(), bopts)
	if err != nil {
		return err
	}
	a2, err := ResumeConn(ca, rotA.View(), aopts, ticket)
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if err := ping(a2, b2); err != nil {
			return fmt.Errorf("seed %d resumed ping %d: %w", seed, i, err)
		}
		if err := ping(b2, a2); err != nil {
			return fmt.Errorf("seed %d resumed pong %d: %w", seed, i, err)
		}
	}
	a2.Release()
	b2.Release()
	if sa.Snapshot().ShapedFrames == 0 {
		return fmt.Errorf("seed %d: no frames were shaped", seed)
	}
	return nil
}
