package session

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"protoobf/internal/core"
	"protoobf/internal/rng"
	"protoobf/internal/session/sched"
)

var schedGenesis = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// serializeFixed serializes one deterministic beacon message under the
// given protocol version, for comparing wire bytes across seed families.
func serializeFixed(t *testing.T, p *core.Protocol) []byte {
	t.Helper()
	m := p.NewMessage()
	s := m.Scope()
	for _, step := range []error{
		s.SetUint("device", 7),
		s.SetUint("seqno", 1234),
		s.SetString("status", "steady"),
		s.SetBytes("sig", []byte{9, 9}),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	data, err := p.Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRekeyHandshake drives a full in-band rekey: propose, ack, both
// peers switch family, and the post-rekey epoch actually speaks a
// different dialect (different wire bytes) than it would have without
// the rekey.
func TestRekeyHandshake(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 21}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := Pair(rotA, rotB, Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	build := specCases[0].build

	exchange(t, a, b, build, r) // baseline at epoch 0

	const newSeed = 0x5EED
	from, err := a.Rekey(newSeed)
	if err != nil {
		t.Fatal(err)
	}
	if from != 1 {
		t.Fatalf("rekey targets epoch %d, want 1", from)
	}
	// The proposer must not cross the boundary before the ack.
	if a.Epoch() != 0 {
		t.Fatalf("proposer advanced to %d before ack", a.Epoch())
	}

	// B's next Recv consumes the proposal (applying + acking it) and then
	// the data frame, which was still sent under epoch 0.
	exchange(t, a, b, build, r)
	if b.Epoch() != from {
		t.Fatalf("acker epoch = %d, want %d", b.Epoch(), from)
	}
	// A's next Recv consumes the ack and completes the handshake; the
	// data frame from B already speaks the new family at epoch 1.
	exchange(t, b, a, build, r)
	if a.Epoch() != from {
		t.Fatalf("proposer epoch = %d after ack, want %d", a.Epoch(), from)
	}
	// Both directions work under the new family.
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)

	// The rekey changed the dialect epoch 1 would otherwise have used:
	// the same message serializes to different bytes under the rekeyed
	// rotation than under a pristine rotation of the same (spec, opts).
	pristine, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	oldP, err := pristine.Version(from)
	if err != nil {
		t.Fatal(err)
	}
	newP, err := rotA.Version(from)
	if err != nil {
		t.Fatal(err)
	}
	oldBytes := serializeFixed(t, oldP)
	newBytes := serializeFixed(t, newP)
	if string(oldBytes) == string(newBytes) {
		t.Fatal("rekey did not change the wire bytes of the post-boundary epoch")
	}
	// And both peers agree on the new family.
	bP, err := rotB.Version(from)
	if err != nil {
		t.Fatal(err)
	}
	if bP.Seed != newP.Seed {
		t.Fatalf("peers diverged after rekey: seeds %d vs %d", bP.Seed, newP.Seed)
	}
}

// TestRekeyCrossedProposals has both peers propose concurrently with
// different seeds: the deterministic tie-break (larger seed wins at the
// same boundary) must converge both sides onto one family without extra
// round-trips.
func TestRekeyCrossedProposals(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 8}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := Pair(rotA, rotB, Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	build := specCases[0].build

	if _, err := a.Rekey(5); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Rekey(9); err != nil {
		t.Fatal(err)
	}
	// A → B: B sees A's losing proposal (9 > 5) and keeps its own.
	exchange(t, a, b, build, r)
	// B → A: A sees B's winning proposal, adopts it and acks.
	exchange(t, b, a, build, r)
	// A → B: B consumes the ack; handshake complete on both sides.
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)

	if a.Epoch() != 1 || b.Epoch() != 1 {
		t.Fatalf("epochs after crossed rekey: A=%d B=%d, want 1/1", a.Epoch(), b.Epoch())
	}
	pa, err := rotA.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := rotB.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Seed != pb.Seed {
		t.Fatalf("crossed proposals diverged: seeds %d vs %d", pa.Seed, pb.Seed)
	}
}

// TestRekeyFollowGate pins that a proposer does not follow the peer's
// frames across its own pending boundary: decoding succeeds, but the
// send epoch holds below the proposed switch until the ack arrives.
func TestRekeyFollowGate(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 44}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := Pair(rotA, rotB, Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	build := specCases[0].build

	if _, err := a.Rekey(0xD1CE); err != nil { // pending boundary at 1
		t.Fatal(err)
	}
	// B crosses into epoch 1 (old family — it has not read the proposal
	// yet) and sends. A must decode it without following to epoch 1.
	if err := b.Advance(1); err != nil {
		t.Fatal(err)
	}
	exchange(t, b, a, build, r)
	if a.Epoch() != 0 {
		t.Fatalf("proposer followed to epoch %d across its pending boundary", a.Epoch())
	}
	// The handshake then completes on normal traffic.
	exchange(t, a, b, build, r) // B reads the proposal, acks, rekeys
	exchange(t, b, a, build, r) // A reads the ack, switches and advances
	if a.Epoch() != 1 || b.Epoch() != 1 {
		t.Fatalf("epochs after handshake: A=%d B=%d, want 1/1", a.Epoch(), b.Epoch())
	}
	pa, err := rotA.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := rotB.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Seed != pb.Seed {
		t.Fatalf("families diverged: %d vs %d", pa.Seed, pb.Seed)
	}
}

// TestRekeyAbandonedThenLateAck pins the liveness rule: a proposal the
// schedule outran is abandoned (rotation resumes) but still honored
// when its ack finally arrives, with at most transient decode errors
// before the peers reconverge on one family.
func TestRekeyAbandonedThenLateAck(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 52}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	clockA := sched.NewFakeClock(schedGenesis)
	clockB := sched.NewFakeClock(schedGenesis)
	interval := time.Minute
	a, b, err := Pair(rotA, rotB,
		Options{Schedule: sched.New(schedGenesis, interval).WithClock(clockA.Now)},
		Options{Schedule: sched.New(schedGenesis, interval).WithClock(clockB.Now)},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	build := specCases[0].build

	if _, err := a.Rekey(0xFADE); err != nil { // boundary at 1, peer silent
		t.Fatal(err)
	}
	jump := uint64(1 + rekeyAbandonLead)
	clockA.Advance(time.Duration(jump) * interval)
	clockB.Advance(time.Duration(jump) * interval)

	// The schedule outran the unacked proposal: A abandons it and
	// rotation resumes instead of freezing at epoch 0.
	m, err := a.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != jump {
		t.Fatalf("proposer epoch = %d after abandonment, want %d", a.Epoch(), jump)
	}
	if err := build(m.Scope(), r); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); err != nil { // old family, epoch `jump`
		t.Fatal(err)
	}
	// B finally reads: it adopts the stale proposal (rekeying from epoch
	// 1) and acks; the data frame composed under the abandoned family
	// then fails — the documented transient error.
	if _, err := b.Recv(); err == nil {
		t.Fatal("old-family frame decoded across the peer's rekey")
	}
	// A processes the late ack on its next Recv and switches too; the
	// session reconverges in both directions.
	exchange(t, b, a, build, r)
	exchange(t, a, b, build, r)
	pa, err := rotA.Version(jump)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := rotB.Version(jump)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Seed != pb.Seed {
		t.Fatalf("families diverged after late ack: %d vs %d", pa.Seed, pb.Seed)
	}
}

// TestRekeyStatic pins that a static session refuses to rekey rather
// than desyncing.
func TestRekeyStatic(t *testing.T) {
	proto, err := core.Compile(pingSpec, core.ObfuscationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := newPipe()
	c, err := NewConn(ca, Fixed(proto.Graph), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rekey(1); err == nil || !strings.Contains(err.Error(), "does not support rekeying") {
		t.Fatalf("static rekey: %v", err)
	}
}

// TestRekeyUnderRace round-trips a mid-session rekey while several
// goroutines keep sending: run with -race this is the locking proof for
// the control plane. A worker pumps request/reply pairs in both
// directions; the main goroutine proposes a rekey mid-stream.
func TestRekeyUnderRace(t *testing.T) {
	const msgs = 60
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 77}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := newPipe()
	a, err := NewConn(ca, rotA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConn(cb, rotB, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Echo peer: decode each message, reply with the same seqno.
	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 2)
	go func() {
		defer wg.Done()
		for {
			m, err := b.Recv()
			if err != nil {
				return // pipe closed
			}
			seqno, err := m.Scope().GetUint("seqno")
			if err != nil {
				errc <- err
				return
			}
			reply, err := b.NewMessage()
			if err != nil {
				errc <- err
				return
			}
			s := reply.Scope()
			if err := s.SetUint("device", 1); err != nil {
				errc <- err
				return
			}
			if err := s.SetUint("seqno", seqno); err != nil {
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
			if err := b.Send(reply); err != nil {
				errc <- err
				return
			}
		}
	}()

	rekeyAt := msgs / 2
	for i := 0; i < msgs; i++ {
		if i == rekeyAt {
			if _, err := a.Rekey(0xFACE); err != nil {
				t.Fatal(err)
			}
		}
		m, err := a.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		s := m.Scope()
		if err := s.SetUint("device", 0); err != nil {
			t.Fatal(err)
		}
		if err := s.SetUint("seqno", uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.SetString("status", "ok"); err != nil {
			t.Fatal(err)
		}
		if err := s.SetBytes("sig", nil); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		reply, err := a.Recv()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		seqno, err := reply.Scope().GetUint("seqno")
		if err != nil {
			t.Fatal(err)
		}
		if seqno != uint64(i) {
			t.Fatalf("reply seqno = %d, want %d", seqno, i)
		}
	}
	// The handshake completed mid-stream: both sides crossed into the
	// rekeyed epoch and agree on its family.
	if a.Epoch() != 1 || b.Epoch() != 1 {
		t.Fatalf("epochs after rekey = A:%d B:%d, want 1/1", a.Epoch(), b.Epoch())
	}
	pa, err := rotA.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := rotB.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Seed != pb.Seed {
		t.Fatalf("families diverged: %d vs %d", pa.Seed, pb.Seed)
	}
	ca.Close() // unblocks the echo goroutine's Recv
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestScheduledConvergence drives two peers from independent fake
// clocks: epochs advance purely from wall-clock time, and the dialects
// stay in lockstep without any in-band coordination.
func TestScheduledConvergence(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 13}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	clockA := sched.NewFakeClock(schedGenesis)
	clockB := sched.NewFakeClock(schedGenesis.Add(2 * time.Second)) // skewed within the interval
	interval := time.Minute
	a, b, err := Pair(rotA, rotB,
		Options{Schedule: sched.New(schedGenesis, interval).WithClock(clockA.Now)},
		Options{Schedule: sched.New(schedGenesis, interval).WithClock(clockB.Now)},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	build := specCases[0].build
	for step := 0; step < 5; step++ {
		exchange(t, a, b, build, r)
		exchange(t, b, a, build, r)
		if want := uint64(step); a.Epoch() != want || b.Epoch() != want {
			t.Fatalf("step %d: epochs A=%d B=%d, want %d", step, a.Epoch(), b.Epoch(), want)
		}
		clockA.Advance(interval)
		clockB.Advance(interval)
	}
}

// TestPartitionRecovery is the satellite scenario: a receiver offline
// across far more than MaxEpochLead wall-clock intervals must resync via
// the scheduler path — its own clock lands it on the fleet-wide epoch,
// so the incoming frame is not mistaken for a forged far-future epoch.
func TestPartitionRecovery(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 4}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	clockA := sched.NewFakeClock(schedGenesis)
	clockB := sched.NewFakeClock(schedGenesis)
	interval := time.Minute
	a, b, err := Pair(rotA, rotB,
		Options{Schedule: sched.New(schedGenesis, interval).WithClock(clockA.Now)},
		Options{Schedule: sched.New(schedGenesis, interval).WithClock(clockB.Now)},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	build := specCases[0].build
	exchange(t, a, b, build, r) // healthy at epoch 0

	// Partition: no traffic while both clocks cross twice the forged-epoch
	// bound's worth of intervals.
	jump := 2*DefaultMaxEpochLead + 3
	clockA.Advance(time.Duration(jump) * interval)
	clockB.Advance(time.Duration(jump) * interval)

	// First frame after the partition: A composes at its schedule epoch;
	// B's own schedule lands on the same epoch, so the frame is 0 ahead
	// and decodes — no "ahead of current" rejection.
	exchange(t, a, b, build, r)
	want := uint64(jump)
	if a.Epoch() != want || b.Epoch() != want {
		t.Fatalf("epochs after partition: A=%d B=%d, want %d", a.Epoch(), b.Epoch(), want)
	}
	exchange(t, b, a, build, r) // and the reverse direction
}

// TestPartitionRecoveryWhileBlocked pins the horizon rule: a receiver
// that was already blocked inside Recv when the partition ended must
// measure the incoming frame's epoch against wall-clock time at decode,
// not against the stale epoch it entered Recv with.
func TestPartitionRecoveryWhileBlocked(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 4}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	clockA := sched.NewFakeClock(schedGenesis)
	clockB := sched.NewFakeClock(schedGenesis)
	interval := time.Minute
	a, b, err := Pair(rotA, rotB,
		Options{Schedule: sched.New(schedGenesis, interval).WithClock(clockA.Now)},
		Options{Schedule: sched.New(schedGenesis, interval).WithClock(clockB.Now)},
	)
	if err != nil {
		t.Fatal(err)
	}

	// B blocks in Recv at epoch 0 with nothing on the wire.
	got := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // let B reach the blocking read

	jump := 2*DefaultMaxEpochLead + 3
	clockA.Advance(time.Duration(jump) * interval)
	clockB.Advance(time.Duration(jump) * interval)

	m, err := a.NewMessage() // composed at A's post-partition schedule epoch
	if err != nil {
		t.Fatal(err)
	}
	s := m.Scope()
	if err := s.SetUint("device", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUint("seqno", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetString("status", "ok"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBytes("sig", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("blocked receiver rejected the post-partition frame: %v", err)
	}
	if want := uint64(jump); b.Epoch() != want {
		t.Fatalf("receiver epoch = %d after recovery, want %d", b.Epoch(), want)
	}
}

// TestScheduledAutoRekey lets the control plane rekey itself: with
// RekeyEvery set and deterministic seed sources, crossing the boundary
// proposes in-band, the handshake completes on the normal message flow,
// and the post-boundary dialect differs from the never-rekeyed family.
func TestScheduledAutoRekey(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 31}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	clockA := sched.NewFakeClock(schedGenesis)
	clockB := sched.NewFakeClock(schedGenesis)
	interval := time.Minute
	const every = 3
	a, b, err := Pair(rotA, rotB,
		Options{
			Schedule:   sched.New(schedGenesis, interval).WithClock(clockA.Now),
			RekeyEvery: every,
			SeedSource: func() (int64, error) { return 1000, nil },
		},
		Options{
			Schedule:   sched.New(schedGenesis, interval).WithClock(clockB.Now),
			RekeyEvery: every,
			SeedSource: func() (int64, error) { return 2000, nil },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(29)
	build := specCases[0].build
	for step := 0; step < 8; step++ {
		exchange(t, a, b, build, r)
		exchange(t, b, a, build, r)
		clockA.Advance(interval)
		clockB.Advance(interval)
	}
	// Both sides agree on every epoch's family...
	for epoch := uint64(0); epoch <= a.Epoch(); epoch++ {
		pa, err := rotA.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := rotB.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Seed != pb.Seed {
			t.Fatalf("epoch %d: families diverged (%d vs %d)", epoch, pa.Seed, pb.Seed)
		}
	}
	// ...and at least one rekey actually switched away from the pristine
	// family.
	pristine, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	switched := false
	for epoch := uint64(1); epoch <= a.Epoch(); epoch++ {
		pa, err := rotA.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := pristine.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Seed != pp.Seed {
			switched = true
			break
		}
	}
	if !switched {
		t.Fatal("RekeyEvery never changed the seed family")
	}
}

// TestDialectCacheSoak crosses 10k epochs on one session and checks both
// the per-connection dialect cache and the rotation's compiled-version
// cache stay bounded at the configured window.
func TestDialectCacheSoak(t *testing.T) {
	const (
		epochs = 10000
		window = 8
	)
	opts := core.ObfuscationOptions{PerNode: 1, Seed: 2}
	rot, err := core.NewRotation(pingSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rot.Bound(window)
	ca, cb := newPipe()
	c, err := NewConn(ca, rot, Options{CacheWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	_ = cb
	for e := uint64(1); e <= epochs; e++ {
		if err := c.Advance(e); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if n := rot.CacheLen(); n > window {
			t.Fatalf("epoch %d: rotation cache holds %d versions, window %d", e, n, window)
		}
		c.ec.mu.Lock()
		dn, bn := c.ec.dialects.Len(), len(c.ec.byGraph)
		c.ec.mu.Unlock()
		if dn > window || bn > window {
			t.Fatalf("epoch %d: conn caches hold %d dialects / %d reverse entries, window %d", e, dn, bn, window)
		}
	}
	// The session still works at the far end of the soak.
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
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
}

// TestVolumeRekey: the ScrambleSuit-style trigger. With a threshold of
// a few dozen bytes, a handful of round trips must complete an in-band
// rekey on both peers — proposed by traffic volume, not by epoch count
// — and the session keeps exchanging cleanly across the boundary.
func TestVolumeRekey(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 2, Seed: 33}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	seedSource := func() (int64, error) { n++; return 0x7EED + n, nil }
	o := Options{RekeyAfterBytes: 64, SeedSource: seedSource}
	a, b, err := Pair(rotA, rotB, o, o)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	build := specCases[0].build

	for i := 0; i < 50 && (rotA.Stats().Rekeys == 0 || rotB.Stats().Rekeys == 0); i++ {
		exchange(t, a, b, build, r)
		exchange(t, b, a, build, r)
	}
	if ra, rb := rotA.Stats().Rekeys, rotB.Stats().Rekeys; ra == 0 || rb == 0 {
		t.Fatalf("volume trigger never completed a rekey (A=%d B=%d, moved=%d)", ra, rb, a.BytesMoved())
	}
	if a.BytesMoved() == 0 || b.BytesMoved() == 0 {
		t.Fatalf("byte odometer stuck at zero (A=%d B=%d)", a.BytesMoved(), b.BytesMoved())
	}
	// The boundary was crossed and traffic still flows.
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)
	if a.Epoch() == 0 && b.Epoch() == 0 {
		t.Fatal("rekey completed but neither peer crossed the boundary epoch")
	}
}

// brokenEntropy simulates an unreadable system entropy source.
type brokenEntropy struct{}

func (brokenEntropy) Read([]byte) (int, error) {
	return 0, errors.New("entropy source down")
}

// TestRekeySeedFailsClosed: with the system entropy source down, the
// default SeedSource must surface an error from the operation that
// triggered the rekey — never fall back to predictable material like a
// timestamp — and the session must keep its current family.
func TestRekeySeedFailsClosed(t *testing.T) {
	saved := entropy
	entropy = brokenEntropy{}
	defer func() { entropy = saved }()

	if _, err := randomSeed(); err == nil || !strings.Contains(err.Error(), "entropy") {
		t.Fatalf("randomSeed err = %v, want entropy failure", err)
	}

	opts := core.ObfuscationOptions{PerNode: 1, Seed: 77}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A rekeys after every framed byte and uses the default (crypto/rand)
	// seed source; B has no trigger so its Recv stays clean.
	a, b, err := Pair(rotA, rotB, Options{RekeyAfterBytes: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	m, err := a.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := specCases[0].build(m.Scope(), r); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); err == nil || !strings.Contains(err.Error(), "entropy") {
		t.Fatalf("Send err = %v, want entropy failure", err)
	}
	if got := rotA.Stats().Rekeys; got != 0 {
		t.Errorf("rekeys applied despite entropy failure: %d", got)
	}
	// The payload itself was framed before the trigger fired; the peer
	// still decodes it, so fail-closed loses no delivered data.
	if _, err := b.Recv(); err != nil {
		t.Fatalf("peer recv after failed trigger: %v", err)
	}
}

// TestVolumeRekeyRespectsThreshold: below the threshold the trigger
// stays silent — no proposals, no family switches.
func TestVolumeRekeyRespectsThreshold(t *testing.T) {
	opts := core.ObfuscationOptions{PerNode: 1, Seed: 34}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{RekeyAfterBytes: 1 << 30}
	a, b, err := Pair(rotA, rotB, o, o)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	build := specCases[0].build
	for i := 0; i < 5; i++ {
		exchange(t, a, b, build, r)
		exchange(t, b, a, build, r)
	}
	if ra, rb := rotA.Stats().Rekeys, rotB.Stats().Rekeys; ra != 0 || rb != 0 {
		t.Fatalf("rekeys below threshold: A=%d B=%d", ra, rb)
	}
}

// TestVolumeRekeyStaticNoop: a Fixed versioner cannot rekey; the
// trigger must stay a silent no-op rather than erroring every Send.
func TestVolumeRekeyStaticNoop(t *testing.T) {
	p, err := core.Compile(beaconSpec, core.ObfuscationOptions{Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{RekeyAfterBytes: 1}
	a, b, err := Pair(Fixed(p.Graph), Fixed(p.Graph), o, o)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	build := specCases[0].build
	for i := 0; i < 3; i++ {
		exchange(t, a, b, build, r)
		exchange(t, b, a, build, r)
	}
}
