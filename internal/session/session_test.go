package session

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"protoobf/internal/core"
	"protoobf/internal/msgtree"
	"protoobf/internal/rng"
)

const beaconSpec = `
protocol beacon;
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

const sensorSpec = `
protocol sensor;
root seq reading end {
    uint  station 2;
    uint  kind 1;
    uint  blen 2;
    seq body length(blen) {
        bytes name delim ";" min 1;
        uint  n 1;
        tabular samples count(n) { uint sample 2; }
    }
    optional alert when kind == 9 { bytes reason end; }
}
`

const chatSpec = `
protocol chat;
root seq m end {
    bytes nick delim ";" min 1;
    uint  kind 1;
    repeat tags until "\r\n" {
        seq tag {
            bytes tname delim "=" min 1;
            bytes tval delim ";" min 1;
        }
    }
    optional extra when kind == 7 { bytes blob end; }
}
`

// pingSpec has no auto-filled references, so serialization needs no fill
// map: the steady-state zero-allocation payload path.
const pingSpec = `
protocol ping;
root seq m end {
    uint a 2;
    uint b 4;
    bytes payload fixed 8;
}
`

// specCases is the differential grid: each case knows how to populate a
// message with values drawn from r.
var specCases = []struct {
	name  string
	spec  string
	build func(s *msgtree.Scope, r *rng.R) error
}{
	{"beacon", beaconSpec, func(s *msgtree.Scope, r *rng.R) error {
		if err := s.SetUint("device", uint64(r.Intn(1<<16))); err != nil {
			return err
		}
		if err := s.SetUint("seqno", uint64(r.Intn(1<<30))); err != nil {
			return err
		}
		if err := s.SetBytes("status", r.PadBytes(1+r.Intn(12))); err != nil {
			return err
		}
		return s.SetBytes("sig", r.Bytes(r.Intn(8)))
	}},
	{"sensor", sensorSpec, func(s *msgtree.Scope, r *rng.R) error {
		if err := s.SetUint("station", uint64(r.Intn(1<<16))); err != nil {
			return err
		}
		kind := uint64(r.Intn(3))
		if r.Intn(2) == 0 {
			kind = 9
		}
		if err := s.SetUint("kind", kind); err != nil {
			return err
		}
		if err := s.SetBytes("name", r.PadBytes(1+r.Intn(10))); err != nil {
			return err
		}
		for i, n := 0, r.Intn(5); i < n; i++ {
			item, err := s.Add("samples")
			if err != nil {
				return err
			}
			if err := item.SetUint("sample", uint64(r.Intn(1<<16))); err != nil {
				return err
			}
		}
		if kind == 9 {
			sc, err := s.Enable("alert")
			if err != nil {
				return err
			}
			return sc.SetBytes("reason", r.PadBytes(r.Intn(16)))
		}
		return nil
	}},
	{"chat", chatSpec, func(s *msgtree.Scope, r *rng.R) error {
		if err := s.SetBytes("nick", r.PadBytes(1+r.Intn(8))); err != nil {
			return err
		}
		kind := uint64(r.Intn(3))
		if r.Intn(2) == 0 {
			kind = 7
		}
		if err := s.SetUint("kind", kind); err != nil {
			return err
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			item, err := s.Add("tags")
			if err != nil {
				return err
			}
			if err := item.SetBytes("tname", r.PadBytes(1+r.Intn(6))); err != nil {
				return err
			}
			if err := item.SetBytes("tval", r.PadBytes(1+r.Intn(6))); err != nil {
				return err
			}
		}
		if kind == 7 {
			sc, err := s.Enable("extra")
			if err != nil {
				return err
			}
			return sc.SetBytes("blob", r.Bytes(r.Intn(20)))
		}
		return nil
	}},
}

func rotationPair(t *testing.T, spec string, seed int64, perNode int) (*Conn, *Conn) {
	t.Helper()
	opts := core.ObfuscationOptions{PerNode: perNode, Seed: seed}
	rotA, err := core.NewRotation(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := Pair(rotA, rotB, Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// exchange builds one message on from, sends it, receives it on to and
// asserts snapshot equality of the two trees.
func exchange(t *testing.T, from, to *Conn, build func(*msgtree.Scope, *rng.R) error, r *rng.R) {
	t.Helper()
	m, err := from.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := build(m.Scope(), r); err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := from.Send(m); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := to.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	want, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot in: %v", err)
	}
	have, err := got.Snapshot()
	if err != nil {
		t.Fatalf("snapshot out: %v", err)
	}
	if diff := msgtree.SnapshotsEqual(want, have); diff != "" {
		t.Fatalf("differential mismatch: %s\nsent:\n%s\nreceived:\n%s",
			diff, msgtree.FormatSnapshot(want), msgtree.FormatSnapshot(have))
	}
}

// TestDifferentialRoundTrip serializes via one peer's session and parses
// via the other across a (spec x seed x PerNode) grid, in both
// directions and across three epoch rotations per session.
func TestDifferentialRoundTrip(t *testing.T) {
	for _, tc := range specCases {
		for _, seed := range []int64{1, 0xC0FFEE} {
			for _, perNode := range []int{0, 1, 2, 4} {
				t.Run(fmt.Sprintf("%s/seed=%d/perNode=%d", tc.name, seed, perNode), func(t *testing.T) {
					a, b := rotationPair(t, tc.spec, seed, perNode)
					r := rng.New(seed*31 + int64(perNode))
					for epoch := 0; epoch < 3; epoch++ {
						for i := 0; i < 3; i++ {
							exchange(t, a, b, tc.build, r)
							exchange(t, b, a, tc.build, r)
						}
						if _, err := a.Rotate(); err != nil {
							t.Fatal(err)
						}
					}
					if a.Epoch() != 3 {
						t.Fatalf("sender epoch = %d, want 3", a.Epoch())
					}
					if b.Epoch() != 2 {
						// B last followed the epoch-2 frames; it sees 3 on
						// the next receive.
						t.Fatalf("receiver epoch = %d, want 2", b.Epoch())
					}
				})
			}
		}
	}
}

// TestEpochFollowAndLag pins the follow rule: the peer adopts a higher
// epoch on receive, keeps decoding frames from older epochs (messages in
// flight across a rotation), and never regresses.
func TestEpochFollowAndLag(t *testing.T) {
	a, b := rotationPair(t, beaconSpec, 42, 2)
	tc := specCases[0]
	r := rng.New(7)

	// Compose at epoch 0, rotate twice, then send the stale message: the
	// frame is tagged with the dialect that composed it.
	stale, err := a.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.build(stale.Scope(), r); err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(2); err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b, tc.build, r) // epoch-2 frame: B follows to 2
	if b.Epoch() != 2 {
		t.Fatalf("B epoch = %d, want 2", b.Epoch())
	}
	if err := a.Send(stale); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatalf("stale epoch-0 frame must still decode: %v", err)
	}
	if b.Epoch() != 2 {
		t.Fatalf("B epoch regressed to %d after old frame", b.Epoch())
	}
}

// TestLiveRotationPipe is the examples/live-rotation scenario as a test:
// two peers over net.Pipe, a request/ack exchange per message, three
// mid-session rotations driven by one side only.
func TestLiveRotationPipe(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 0xC0FFEE}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()
	a, err := NewConn(connA, rotA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConn(connB, rotB, Options{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for {
			m, err := b.Recv()
			if err != nil {
				done <- nil // pipe closed
				return
			}
			seqno, err := m.Scope().GetUint("seqno")
			if err != nil {
				done <- fmt.Errorf("B get seqno: %w", err)
				return
			}
			ack, err := b.NewMessage()
			if err != nil {
				done <- err
				return
			}
			s := ack.Scope()
			if err := s.SetUint("device", 99); err != nil {
				done <- err
				return
			}
			if err := s.SetUint("seqno", seqno); err != nil {
				done <- err
				return
			}
			if err := s.SetString("status", "ack"); err != nil {
				done <- err
				return
			}
			if err := s.SetBytes("sig", nil); err != nil {
				done <- err
				return
			}
			if err := b.Send(ack); err != nil {
				done <- err
				return
			}
		}
	}()

	seqno := uint64(0)
	for epoch := uint64(0); epoch < 4; epoch++ {
		for i := 0; i < 2; i++ {
			seqno++
			m, err := a.NewMessage()
			if err != nil {
				t.Fatal(err)
			}
			s := m.Scope()
			if err := s.SetUint("device", 42); err != nil {
				t.Fatal(err)
			}
			if err := s.SetUint("seqno", seqno); err != nil {
				t.Fatal(err)
			}
			if err := s.SetString("status", "ok"); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBytes("sig", []byte{1, 2}); err != nil {
				t.Fatal(err)
			}
			if err := a.Send(m); err != nil {
				t.Fatal(err)
			}
			ack, err := a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			v, err := ack.Scope().GetUint("seqno")
			if err != nil {
				t.Fatal(err)
			}
			if v != seqno {
				t.Fatalf("ack seqno = %d, want %d", v, seqno)
			}
			// The ack was sent after B saw our epoch, so it must carry it.
			if got := b.Epoch(); got != epoch {
				t.Fatalf("B epoch = %d, want %d", got, epoch)
			}
		}
		if epoch+1 < 4 {
			if _, err := a.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	connA.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != 3 || b.Epoch() != 3 {
		t.Fatalf("final epochs A=%d B=%d, want 3/3", a.Epoch(), b.Epoch())
	}
}

// TestConcurrentSendersEpochBump drives one session with several
// concurrent sender goroutines while another goroutine bumps the epoch
// mid-stream; the receiver decodes every message whatever dialect its
// frame names. Run under -race this doubles as the locking proof.
func TestConcurrentSendersEpochBump(t *testing.T) {
	const senders = 4
	const perSender = 24

	opts := core.ObfuscationOptions{PerNode: 2, Seed: 99}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()
	a, err := NewConn(connA, rotA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConn(connB, rotB, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, senders+1)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				m, err := a.NewMessage()
				if err != nil {
					errc <- err
					return
				}
				s := m.Scope()
				if err := s.SetUint("device", uint64(g)); err != nil {
					errc <- err
					return
				}
				if err := s.SetUint("seqno", uint64(i)); err != nil {
					errc <- err
					return
				}
				if err := s.SetString("status", "ok"); err != nil {
					errc <- err
					return
				}
				if err := s.SetBytes("sig", nil); err != nil {
					errc <- err
					return
				}
				if err := a.Send(m); err != nil {
					errc <- err
					return
				}
				// Sender 0 rotates the session mid-stream every 8 messages.
				if g == 0 && i%8 == 7 {
					if _, err := a.Rotate(); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}

	got := make(map[[2]uint64]bool)
	for n := 0; n < senders*perSender; n++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", n, err)
		}
		s := m.Scope()
		dev, err := s.GetUint("device")
		if err != nil {
			t.Fatal(err)
		}
		seq, err := s.GetUint("seqno")
		if err != nil {
			t.Fatal(err)
		}
		key := [2]uint64{dev, seq}
		if got[key] {
			t.Fatalf("duplicate message %v", key)
		}
		got[key] = true
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != senders*perSender {
		t.Fatalf("received %d distinct messages, want %d", len(got), senders*perSender)
	}
	if a.Epoch() != 3 {
		t.Fatalf("sender epoch = %d, want 3 after three bumps", a.Epoch())
	}
}

// TestSteadyStateAllocs enforces the hot-path guarantee: after warm-up,
// one message Send plus one payload Recv performs at most 2 allocations
// (the target is 0: pooled read buffer, reused write buffer, in-place
// reversal, lazy fill map).
func TestSteadyStateAllocs(t *testing.T) {
	proto, err := core.Compile(pingSpec, core.ObfuscationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rw := &bytes.Buffer{}
	c, err := NewConn(rw, Fixed(proto.Graph), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	s := m.Scope()
	if err := s.SetUint("a", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUint("b", 1234); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBytes("payload", []byte("01234567")); err != nil {
		t.Fatal(err)
	}
	tr := c.Transport()
	buf := make([]byte, 0, 64)
	roundtrip := func() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		out, _, err := tr.RecvPayload(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	}
	roundtrip() // warm buffers
	if allocs := testing.AllocsPerRun(200, roundtrip); allocs > 2 {
		t.Fatalf("steady-state Send+Recv allocates %.1f times per op, want <= 2", allocs)
	}
}

// TestTransportTruncation feeds truncated and oversized frames to the
// transport: every malformed stream must surface an error.
func TestTransportTruncation(t *testing.T) {
	whole := &bytes.Buffer{}
	tr := NewTransport(whole)
	if err := tr.SendPayload([]byte("hello session")); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), whole.Bytes()...)
	for cut := 0; cut < len(frame); cut++ {
		tr := NewTransport(bytes.NewBuffer(append([]byte(nil), frame[:cut]...)))
		if _, _, err := tr.RecvPayload(nil); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
	}
	// Oversized length prefix.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0}
	tr = NewTransport(bytes.NewBuffer(huge))
	if _, _, err := tr.RecvPayload(nil); err == nil {
		t.Fatal("oversized frame decoded successfully")
	}
}

// TestEpochLeadBound pins the anti-DoS rules of Recv: a frame naming an
// epoch too far ahead is rejected before any dialect is compiled, and a
// malformed payload never moves the session epoch.
func TestEpochLeadBound(t *testing.T) {
	a, b := rotationPair(t, beaconSpec, 3, 1)

	// Far-future epoch: rejected by the lead bound.
	if err := a.Transport().sendPayloadAt(b.MaxEpochLead+1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("far-future epoch accepted")
	} else if !strings.Contains(err.Error(), "ahead of current") {
		t.Fatalf("unexpected error: %v", err)
	}
	if b.Epoch() != 0 {
		t.Fatalf("epoch moved to %d on rejected frame", b.Epoch())
	}

	// Plausible next epoch but garbage payload: parse fails, epoch stays.
	if err := a.Transport().sendPayloadAt(1, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("garbage payload decoded")
	}
	if b.Epoch() != 0 {
		t.Fatalf("epoch moved to %d on malformed frame", b.Epoch())
	}

	// A valid frame at epoch 1 still advances.
	r := rng.New(11)
	if err := a.Advance(1); err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b, specCases[0].build, r)
	if b.Epoch() != 1 {
		t.Fatalf("epoch = %d after valid epoch-1 frame, want 1", b.Epoch())
	}
}

// TestTransportFollowBound pins the raw transport's bounded follow rule:
// a forged far-future epoch is delivered but cannot pin the monotonic
// epoch, so legitimate rotations still follow afterwards.
func TestTransportFollowBound(t *testing.T) {
	e1, e2 := newPipe()
	x, y := NewTransport(e1), NewTransport(e2)
	if err := x.sendPayloadAt(1<<60, []byte("forged")); err != nil {
		t.Fatal(err)
	}
	_, epoch, err := y.RecvPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1<<60 {
		t.Fatalf("delivered epoch = %d, want 1<<60", epoch)
	}
	if y.Epoch() != 0 {
		t.Fatalf("epoch pinned to %d by forged frame", y.Epoch())
	}
	if err := x.sendPayloadAt(3, []byte("legit")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := y.RecvPayload(nil); err != nil {
		t.Fatal(err)
	}
	if y.Epoch() != 3 {
		t.Fatalf("epoch = %d after legitimate rotation, want 3", y.Epoch())
	}
}
