package protoobf_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"protoobf"
)

const beaconSpec = `
protocol beacon;
root seq msg end {
    uint  seqno 4;
    bytes note end;
}`

// fakeClock is a mutex-guarded clock for driving schedules from tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// ExampleNewEndpoint shows the §VIII deployment shape: each peer
// compiles the dialect family once into an Endpoint, mints a session
// over the shared byte stream, and the dialect rotates mid-session.
func ExampleNewEndpoint() {
	opts := protoobf.Options{PerNode: 2, Seed: 7}
	server, err := protoobf.NewEndpoint(beaconSpec, opts)
	if err != nil {
		panic(err)
	}
	client, err := protoobf.NewEndpoint(beaconSpec, opts)
	if err != nil {
		panic(err)
	}
	cs, ss := protoobf.Pipe()
	a, err := client.Session(cs)
	if err != nil {
		panic(err)
	}
	b, err := server.Session(ss)
	if err != nil {
		panic(err)
	}
	for round := uint64(0); round < 2; round++ {
		m, err := a.NewMessage()
		if err != nil {
			panic(err)
		}
		if err := m.Scope().SetUint("seqno", 100+round); err != nil {
			panic(err)
		}
		if err := m.Scope().SetString("note", "hello"); err != nil {
			panic(err)
		}
		if err := a.Send(m); err != nil {
			panic(err)
		}
		got, err := b.Recv()
		if err != nil {
			panic(err)
		}
		seqno, _ := got.Scope().GetUint("seqno")
		fmt.Printf("epoch %d delivered seqno %d\n", b.Epoch(), seqno)
		if _, err := a.Rotate(); err != nil { // B follows on its next Recv
			panic(err)
		}
	}
	// Output:
	// epoch 0 delivered seqno 100
	// epoch 1 delivered seqno 101
}

// messenger is the message surface stream and packet sessions share.
type messenger interface {
	NewMessage() (*protoobf.Message, error)
	Send(*protoobf.Message) error
	Recv() (*protoobf.Message, error)
}

// roundTrip sends one beacon from -> to and asserts the payload.
func roundTrip(t *testing.T, from, to messenger, seqno uint64) {
	t.Helper()
	m, err := from.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Scope().SetUint("seqno", seqno); err != nil {
		t.Fatal(err)
	}
	if err := m.Scope().SetString("note", "n"); err != nil {
		t.Fatal(err)
	}
	if err := from.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := to.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := got.Scope().GetUint("seqno"); err != nil || v != seqno {
		t.Fatalf("round trip decoded seqno %d (%v), want %d", v, err, seqno)
	}
}

// TestEndpointConcurrentSessions runs N session pairs on one server
// Endpoint under mixed rotation regimes — scheduled clients adopt the
// shared wall clock themselves, unscheduled clients follow the server's
// frames — while a separate goroutine advances epoch time. Run under
// -race this is the share-safety test for the sharded version cache.
func TestEndpointConcurrentSessions(t *testing.T) {
	const (
		pairs    = 8
		rounds   = 40
		interval = time.Hour
	)
	opts := protoobf.Options{PerNode: 1, Seed: 41}
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := &fakeClock{t: genesis}
	schedule := protoobf.NewSchedule(genesis, interval).WithClock(clock.now)

	server, err := protoobf.NewEndpoint(beaconSpec, opts, protoobf.WithSchedule(schedule))
	if err != nil {
		t.Fatal(err)
	}
	client, err := protoobf.NewEndpoint(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // epoch time passes while traffic flows
		defer wg.Done()
		for i := 0; i < 30; i++ {
			select {
			case <-stop:
				return
			default:
			}
			clock.advance(interval)
			time.Sleep(time.Millisecond)
		}
	}()

	errs := make(chan error, pairs)
	for p := 0; p < pairs; p++ {
		cs, ss := protoobf.Pipe()
		// Every server session inherits the endpoint's schedule; half
		// the clients schedule themselves, the other half follow the
		// server's reply epochs.
		var copts []protoobf.SessionOption
		if p%2 == 0 {
			copts = append(copts, protoobf.WithSchedule(schedule))
		}
		sc, err := client.Session(cs, copts...)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := server.Session(ss)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, sc, sv *protoobf.Session) {
			defer wg.Done()
			defer sc.Release()
			defer sv.Release()
			for r := 0; r < rounds; r++ {
				seq := uint64(p*rounds + r)
				m, err := sc.NewMessage()
				if err != nil {
					errs <- fmt.Errorf("pair %d: %w", p, err)
					return
				}
				if err := m.Scope().SetUint("seqno", seq); err != nil {
					errs <- err
					return
				}
				if err := m.Scope().SetString("note", "n"); err != nil {
					errs <- err
					return
				}
				if err := sc.Send(m); err != nil {
					errs <- fmt.Errorf("pair %d send: %w", p, err)
					return
				}
				got, err := sv.Recv()
				if err != nil {
					errs <- fmt.Errorf("pair %d server recv: %w", p, err)
					return
				}
				v, _ := got.Scope().GetUint("seqno")
				if v != seq {
					errs <- fmt.Errorf("pair %d: decoded %d, want %d", p, v, seq)
					return
				}
				reply, err := sv.NewMessage() // adopts the schedule epoch
				if err != nil {
					errs <- err
					return
				}
				if err := reply.Scope().SetUint("seqno", seq); err != nil {
					errs <- err
					return
				}
				if err := reply.Scope().SetString("note", "ack"); err != nil {
					errs <- err
					return
				}
				if err := sv.Send(reply); err != nil {
					errs <- err
					return
				}
				if _, err := sc.Recv(); err != nil { // followers advance here
					errs <- fmt.Errorf("pair %d client recv: %w", p, err)
					return
				}
			}
			errs <- nil
		}(p, sc, sv)
	}
	for p := 0; p < pairs; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if n := server.Rotation().CacheLen(); n == 0 {
		t.Error("server endpoint compiled nothing — sessions bypassed the shared cache")
	}
}

// TestSessionsVaryFirstFrame: the same first message, sent by sessions
// on two endpoints of one family, goes out as different bytes. The
// dialect is shared, but the message randomness (the random halves of
// splits, padding) is seeded per session, so sessions do not repeat
// each other's representations of a message.
func TestSessionsVaryFirstFrame(t *testing.T) {
	// Seed 10's epoch-0 dialect splits enough fields that about half
	// of the frame's bytes come from the message rng.
	opts := protoobf.Options{PerNode: 2, Seed: 10}
	firstFrame := func() []byte {
		t.Helper()
		ep, err := protoobf.NewEndpoint(beaconSpec, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		s, err := ep.Session(&wire)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		m, err := s.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Scope().SetUint("seqno", 1); err != nil {
			t.Fatal(err)
		}
		if err := m.Scope().SetString("note", "ping"); err != nil {
			t.Fatal(err)
		}
		if err := s.Send(m); err != nil {
			t.Fatal(err)
		}
		return wire.Bytes()
	}
	if a, b := firstFrame(), firstFrame(); bytes.Equal(a, b) {
		t.Fatalf("two sessions wrote the same first frame: %x", a)
	}
}

// TestEndpointSessionRekeyIndependence is the property the Endpoint
// exists for: an in-band rekey negotiated on one session of an endpoint
// leaves its sibling sessions — and the endpoint's base family — intact.
func TestEndpointSessionRekeyIndependence(t *testing.T) {
	opts := protoobf.Options{PerNode: 2, Seed: 17}
	server, err := protoobf.NewEndpoint(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	client, err := protoobf.NewEndpoint(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseSeed := func(ep *protoobf.Endpoint, epoch uint64) int64 {
		t.Helper()
		p, err := ep.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		return p.Seed
	}
	wantSeed := baseSeed(server, 3)

	mk := func() (*protoobf.Session, *protoobf.Session) {
		t.Helper()
		cs, ss := protoobf.Pipe()
		sc, err := client.Session(cs)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := server.Session(ss)
		if err != nil {
			t.Fatal(err)
		}
		return sc, sv
	}
	c1, s1 := mk()
	c2, s2 := mk()

	roundTrip(t, c1, s1, 1)
	roundTrip(t, c2, s2, 2)

	// Pair 1 rekeys: propose rides ahead of a data frame, the ack comes
	// back with the reply.
	if _, err := c1.Rekey(0xFEED); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c1, s1, 3) // server handles the propose, acks, advances
	roundTrip(t, s1, c1, 4) // client handles the ack and advances
	if c1.Epoch() == 0 || s1.Epoch() == 0 {
		t.Fatalf("rekey handshake did not advance the pair (client %d, server %d)", c1.Epoch(), s1.Epoch())
	}
	// Pair 1 keeps working under the new family.
	roundTrip(t, c1, s1, 5)

	// Pair 2 crosses the rekey boundary on the base family — exactly
	// the exchange the old shared-Rotation design corrupted.
	for e := 0; e < 3; e++ {
		if _, err := c2.Rotate(); err != nil {
			t.Fatal(err)
		}
		roundTrip(t, c2, s2, uint64(10+e))
	}
	// The endpoint's base family is untouched by pair 1's rekey.
	if got := baseSeed(server, 3); got != wantSeed {
		t.Errorf("base family seed changed across a session rekey: %d -> %d", wantSeed, got)
	}
}

// TestEndpointCacheSoak churns a session pair across ~1500 scheduled
// epochs and pins the sharded version cache (and the per-session
// dialect windows) to their configured bounds.
func TestEndpointCacheSoak(t *testing.T) {
	const (
		epochs   = 1500
		vwindow  = 12
		swindow  = 6
		interval = time.Minute
	)
	opts := protoobf.Options{PerNode: 0, Seed: 5}
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := &fakeClock{t: genesis}
	schedule := protoobf.NewSchedule(genesis, interval).WithClock(clock.now)

	ep, err := protoobf.NewEndpoint(beaconSpec, opts,
		protoobf.WithSchedule(schedule),
		protoobf.WithVersionCache(vwindow, 4),
		protoobf.WithCacheWindow(swindow))
	if err != nil {
		t.Fatal(err)
	}
	cs, ss := protoobf.Pipe()
	a, err := ep.Session(cs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ep.Session(ss)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		clock.advance(interval)
		roundTrip(t, a, b, uint64(e))
		if n := ep.Rotation().CacheLen(); n > vwindow {
			t.Fatalf("epoch %d: shared cache holds %d versions, bound %d", e, n, vwindow)
		}
	}
	if got, want := a.Epoch(), uint64(epochs); got != want {
		t.Fatalf("soak ended at epoch %d, want %d", got, want)
	}
}

// TestEndpointDialListen exercises the net-native surface over loopback
// TCP: one listening endpoint serving several dialing clients, sessions
// owning their connections.
func TestEndpointDialListen(t *testing.T) {
	opts := protoobf.Options{PerNode: 1, Seed: 23}
	server, err := protoobf.NewEndpoint(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	client, err := protoobf.NewEndpoint(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := server.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		for {
			sess, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go func(sess *protoobf.Session) {
				defer sess.Close()
				for {
					got, err := sess.Recv()
					if err != nil {
						return
					}
					seq, _ := got.Scope().GetUint("seqno")
					reply, err := sess.NewMessage()
					if err != nil {
						return
					}
					if reply.Scope().SetUint("seqno", seq+1000) != nil {
						return
					}
					if reply.Scope().SetString("note", "ack") != nil {
						return
					}
					if sess.Send(reply) != nil {
						return
					}
				}
			}(sess)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess, err := client.Dial(ctx, "tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for r := 0; r < 5; r++ {
				seq := uint64(c*100 + r)
				m, err := sess.NewMessage()
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Scope().SetUint("seqno", seq); err != nil {
					t.Error(err)
					return
				}
				if err := m.Scope().SetString("note", "n"); err != nil {
					t.Error(err)
					return
				}
				if err := sess.Send(m); err != nil {
					t.Error(err)
					return
				}
				got, err := sess.Recv()
				if err != nil {
					t.Error(err)
					return
				}
				if v, _ := got.Scope().GetUint("seqno"); v != seq+1000 {
					t.Errorf("client %d: got %d, want %d", c, v, seq+1000)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestEndpointStatic pins the WithStaticProtocol path: session framing
// without dialect rotation, for both a static endpoint and a static
// session on a rotating endpoint.
func TestEndpointStatic(t *testing.T) {
	proto, err := protoobf.Compile(beaconSpec, protoobf.Options{PerNode: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := protoobf.NewEndpoint("", protoobf.Options{}, protoobf.WithStaticProtocol(proto))
	if err != nil {
		t.Fatal(err)
	}
	if ep.Rotation() != nil {
		t.Error("static endpoint compiled a rotation")
	}
	cs, ss := protoobf.Pipe()
	a, err := ep.Session(cs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ep.Session(ss)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, a, b, 7)
	if _, err := a.Rekey(1); err == nil {
		t.Error("static session accepted a rekey")
	}

	// A rotating endpoint can still pin individual sessions.
	rot, err := protoobf.NewEndpoint(beaconSpec, protoobf.Options{PerNode: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cs2, ss2 := protoobf.Pipe()
	x, err := rot.Session(cs2, protoobf.WithStaticProtocol(proto))
	if err != nil {
		t.Fatal(err)
	}
	y, err := rot.Session(ss2, protoobf.WithStaticProtocol(proto))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, x, y, 9)
}

// TestEndpointOptionMisuse pins the error paths for options that cannot
// apply where they were given.
func TestEndpointOptionMisuse(t *testing.T) {
	proto, err := protoobf.Compile(beaconSpec, protoobf.Options{PerNode: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// A static endpoint has no family to fall back to when a session
	// clears the static protocol.
	ep, err := protoobf.NewEndpoint("", protoobf.Options{}, protoobf.WithStaticProtocol(proto))
	if err != nil {
		t.Fatal(err)
	}
	rw, _ := protoobf.Pipe()
	if _, err := ep.Session(rw, protoobf.WithStaticProtocol(nil)); err == nil {
		t.Error("static endpoint minted a session with no protocol at all")
	}
	// WithVersionCache is endpoint-level; in session position it would
	// silently do nothing, so it errors instead.
	rot, err := protoobf.NewEndpoint(beaconSpec, protoobf.Options{PerNode: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	rw2, _ := protoobf.Pipe()
	if _, err := rot.Session(rw2, protoobf.WithVersionCache(256, 8)); err == nil {
		t.Error("session accepted the endpoint-level WithVersionCache")
	}
}
