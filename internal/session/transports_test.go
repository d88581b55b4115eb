package session_test

import (
	"strings"
	"testing"

	"protoobf/internal/core"
	"protoobf/internal/msgtree"
	"protoobf/internal/session"
	"protoobf/internal/session/dgram"
)

// Tests over both transports — the stream Conn and the datagram Conn —
// of the behavior their shared EpochCore gives them. They live in an
// external test package because dgram imports session.

const pingSpec = `
protocol ping;
root seq m end {
    uint a 2;
    uint b 4;
    bytes payload fixed 8;
}
`

// peer is the session surface both transports share.
type peer interface {
	NewMessage() (*msgtree.Message, error)
	Send(*msgtree.Message) error
	Recv() (*msgtree.Message, error)
	Advance(epoch uint64) error
	Rekey(seed int64) (uint64, error)
}

// transports opens a connected pair of each transport over fresh views
// of one dialect family, every peer with the given dialect cache window.
var transports = []struct {
	name string
	pair func(t *testing.T, cacheWindow int) (x, y peer)
}{
	{"stream", func(t *testing.T, w int) (peer, peer) {
		rx, ry := pingRotations(t)
		o := session.Options{CacheWindow: w}
		x, y, err := session.Pair(rx.View(), ry.View(), o, o)
		if err != nil {
			t.Fatal(err)
		}
		return x, y
	}},
	{"datagram", func(t *testing.T, w int) (peer, peer) {
		rx, ry := pingRotations(t)
		o := dgram.Options{CacheWindow: w}
		x, y, err := dgram.Pair(rx.View(), ry.View(), o, o)
		if err != nil {
			t.Fatal(err)
		}
		return x, y
	}},
}

func pingRotations(t *testing.T) (*core.Rotation, *core.Rotation) {
	t.Helper()
	opts := core.ObfuscationOptions{PerNode: 1, Seed: 6}
	x, err := core.NewRotation(pingSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	y, err := core.NewRotation(pingSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x, y
}

// composePing builds one ping message on c at its current epoch.
func composePing(t *testing.T, c peer) *msgtree.Message {
	t.Helper()
	m, err := c.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	s := m.Scope()
	if err := s.SetUint("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUint("b", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBytes("payload", []byte("01234567")); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSendEvictedDialectRejected pins the Send contract on both
// transports: a message composed for an epoch whose dialect the session
// no longer holds — it left the cache window, or a rekey from an earlier
// boundary dropped it as old-family — cannot be sent, and the error
// says so.
func TestSendEvictedDialectRejected(t *testing.T) {
	const composed = 3 // the epoch the doomed message is composed for
	causes := []struct {
		name string
		drop func(t *testing.T, x, y peer)
	}{
		{"window", func(t *testing.T, x, _ peer) {
			// Past any window either transport resolves a 2 to (the
			// datagram layer floors it at its decode window, 9).
			for e := uint64(composed + 1); e <= composed+10; e++ {
				if err := x.Advance(e); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"rekey", func(t *testing.T, x, y peer) {
			// y still sits at epoch 0, so its rekey boundary (1) lies
			// below x's epoch: applying it drops x's epoch-3 dialect.
			if _, err := y.Rekey(0x5EED); err != nil {
				t.Fatal(err)
			}
			if err := y.Send(composePing(t, y)); err != nil {
				t.Fatal(err)
			}
			if _, err := x.Recv(); err != nil { // applies the rekey on the way
				t.Fatal(err)
			}
		}},
	}
	for _, tr := range transports {
		for _, cause := range causes {
			t.Run(tr.name+"/"+cause.name, func(t *testing.T) {
				x, y := tr.pair(t, 2)
				if err := x.Advance(composed); err != nil {
					t.Fatal(err)
				}
				m := composePing(t, x)
				cause.drop(t, x, y)
				if err := x.Send(m); err == nil || !strings.Contains(err.Error(), "does not belong to this session") {
					t.Fatalf("send of a message whose dialect was dropped: %v", err)
				}
			})
		}
	}
}

// lastPacket is a datagram transport that keeps a copy of the last
// packet written, reusing one buffer.
type lastPacket struct{ pkt []byte }

func (l *lastPacket) Write(p []byte) (int, error) {
	l.pkt = append(l.pkt[:0], p...)
	return len(p), nil
}

func (l *lastPacket) Read([]byte) (int, error) { return 0, nil }

// TestDgramSteadyStateAllocs pins the datagram hot path next to the
// stream pin (TestSteadyStateAllocs): after warm-up, one Send plus one
// Decode of the packet, in both wire modes, allocates no more than it
// did before the epoch core was shared. Decode builds the received
// message tree, so unlike the stream pin (which receives the raw
// payload) the floor is not zero.
func TestDgramSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	for _, tc := range []struct {
		zo  bool
		max float64
	}{{false, 20}, {true, 35}} { // the counts measured before the core was shared
		rot, _ := pingRotations(t)
		w := &lastPacket{}
		c, err := dgram.NewConn(w, rot.View(), dgram.Options{ZeroOverhead: tc.zo})
		if err != nil {
			t.Fatal(err)
		}
		m := composePing(t, c)
		roundtrip := func() {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
			if got, err := c.Decode(w.pkt); err != nil || got == nil {
				t.Fatalf("decode: %v", err)
			}
		}
		roundtrip() // warm buffers and the pad cache
		if allocs := testing.AllocsPerRun(200, roundtrip); allocs > tc.max {
			t.Errorf("zeroOverhead=%v: steady-state Send+Decode allocates %.1f times per op, want <= %.0f", tc.zo, allocs, tc.max)
		}
	}
}
