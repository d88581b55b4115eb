package session

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"protoobf/internal/core"
	"protoobf/internal/frame"
	"protoobf/internal/metrics"
	"protoobf/internal/rng"
	"protoobf/internal/session/sched"
)

// resumePair builds a session pair over fresh views of two rotations
// compiled from the same (spec, opts) — the deployment shape of a
// resumable session (views implement the ticket interfaces; bare
// rotations do too via their default view, but migration always runs
// on per-session views in practice).
func resumePair(t *testing.T, rotA, rotB *core.Rotation, aopts, bopts Options) (*Conn, *Conn) {
	t.Helper()
	a, b, err := Pair(rotA.View(), rotB.View(), aopts, bopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Release()
		b.Release()
	})
	return a, b
}

func newTestRotations(t *testing.T, seed int64) (*core.Rotation, *core.Rotation) {
	t.Helper()
	opts := core.ObfuscationOptions{PerNode: 2, Seed: seed}
	rotA, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := core.NewRotation(beaconSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rotA, rotB
}

// lineageOf reads a session's rekey history through the interface the
// migration subsystem uses.
func lineageOf(t *testing.T, c *Conn) ([]uint64, []int64) {
	t.Helper()
	lin, ok := c.ec.versions.(Lineage)
	if !ok {
		t.Fatal("versioner has no lineage")
	}
	froms, seeds := lin.RekeyLineage()
	return froms, seeds
}

// TestResumeRoundtrip is the subsystem's core property: a session that
// has both rotated epochs and rekeyed its family is exported, its
// streams are dropped, and the ticket reconstructs it on a brand-new
// duplex — same epoch, same (rekeyed!) family, continuous odometer —
// with messages flowing in both directions immediately.
func TestResumeRoundtrip(t *testing.T) {
	rotA, rotB := newTestRotations(t, 21)
	a, b := resumePair(t, rotA, rotB, Options{}, Options{})
	r := rng.New(11)
	build := specCases[0].build

	exchange(t, a, b, build, r) // epoch 0, base family

	// Rekey (a proposes, b acks on its Recv, a completes on its Recv).
	if _, err := a.Rekey(0x5EED); err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)

	// Rotate a few epochs past the rekey boundary.
	for i := 0; i < 3; i++ {
		if _, err := a.Rotate(); err != nil {
			t.Fatal(err)
		}
		exchange(t, a, b, build, r)
	}
	wantEpoch := a.Epoch()
	if wantEpoch < 4 {
		t.Fatalf("setup epoch = %d, want >= 4", wantEpoch)
	}

	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	movedAtExport := a.BytesMoved()
	if movedAtExport == 0 {
		t.Fatal("exported session moved no bytes")
	}

	// The connection dies; both sides meet again over a fresh duplex.
	ca, cb := newPipe()
	b2, err := NewConn(cb, rotB.View(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ResumeConn(ca, rotA.View(), Options{}, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	defer b2.Release()

	if got := a2.Epoch(); got != wantEpoch {
		t.Fatalf("resumed epoch = %d, want %d", got, wantEpoch)
	}
	if got := a2.BytesMoved(); got != movedAtExport {
		t.Fatalf("resumed odometer = %d, want %d", got, movedAtExport)
	}

	// Data flows immediately; the acceptor adopts the ticket from the
	// first frame and both sides speak the rekeyed family.
	exchange(t, a2, b2, build, r)
	exchange(t, b2, a2, build, r)

	for _, c := range []*Conn{a2, b2} {
		froms, seeds := lineageOf(t, c)
		if len(froms) != 1 || froms[0] != 1 || seeds[0] != 0x5EED {
			t.Fatalf("resumed lineage = %v/%v, want [1]/[0x5EED]", froms, seeds)
		}
	}
	if got := b2.Epoch(); got != wantEpoch {
		t.Fatalf("acceptor epoch after resume = %d, want %d", got, wantEpoch)
	}

	// And the session keeps living a normal life: another rekey and more
	// rotation on the resumed pair.
	if _, err := a2.Rekey(0xBEEF); err != nil {
		t.Fatal(err)
	}
	exchange(t, a2, b2, build, r)
	exchange(t, b2, a2, build, r)
	if froms, _ := lineageOf(t, a2); len(froms) != 2 {
		t.Fatalf("post-resume rekey not recorded: lineage %v", froms)
	}
}

// TestResumeScheduledSession: a resumed session with a schedule adopts
// the fleet's current epoch — not the ticket's — exactly as a session
// that had stayed connected across the partition would have.
func TestResumeScheduledSession(t *testing.T) {
	rotA, rotB := newTestRotations(t, 33)
	clock := sched.NewFakeClock(schedGenesis)
	schedule := sched.New(schedGenesis, time.Minute).WithClock(clock.Now)
	aopts := Options{Schedule: schedule}
	a, b := resumePair(t, rotA, rotB, aopts, aopts)
	r := rng.New(7)
	build := specCases[0].build

	clock.Advance(2 * time.Minute) // epoch 2
	exchange(t, a, b, build, r)
	if _, err := a.Rekey(0x7777); err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)

	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}

	// The fleet keeps rotating while the peer is gone.
	clock.Advance(3 * time.Minute) // epoch 5

	ca, cb := newPipe()
	b2, err := NewConn(cb, rotB.View(), aopts)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ResumeConn(ca, rotA.View(), aopts, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	defer b2.Release()

	if got := a2.Epoch(); got != 5 {
		t.Fatalf("resumed scheduled epoch = %d, want 5", got)
	}
	exchange(t, a2, b2, build, r)
	exchange(t, b2, a2, build, r)
	froms, _ := lineageOf(t, b2)
	if len(froms) != 1 {
		t.Fatalf("acceptor lineage after scheduled resume = %v", froms)
	}
}

// TestResumeRacingCrossedRekey is the glare case: the acceptor mints an
// automatic rekey proposal at construction (its schedule says one is
// overdue) before it has seen the resume frame. The proposal is masked
// under the acceptor's pre-resume state and must die; the resuming side
// drops it unread while its ack is outstanding; and a post-resume rekey
// still completes, proving the control plane reconverged.
func TestResumeRacingCrossedRekey(t *testing.T) {
	rotA, rotB := newTestRotations(t, 55)
	clock := sched.NewFakeClock(schedGenesis)
	schedule := sched.New(schedGenesis, time.Minute).WithClock(clock.Now)
	base := Options{Schedule: schedule}
	a, b := resumePair(t, rotA, rotB, base, base)
	r := rng.New(19)
	build := specCases[0].build

	clock.Advance(time.Minute) // epoch 1
	exchange(t, a, b, build, r)
	if _, err := a.Rekey(0x1234); err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)
	clock.Advance(time.Minute) // epoch 2
	exchange(t, a, b, build, r)

	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}

	// Fresh acceptor with an aggressive rekey schedule: RekeyEvery 1 and
	// a deterministic seed source. Construction itself writes a proposal
	// into the pipe — the crossed frame the resuming side must survive.
	var stats metrics.ResumeCounters
	ca, cb := newPipe()
	bopts := base
	bopts.RekeyEvery = 1
	bopts.SeedSource = func() (int64, error) { return 0x9999, nil }
	bopts.ResumeStats = &stats
	b2, err := NewConn(cb, rotB.View(), bopts)
	if err != nil {
		t.Fatal(err)
	}
	b2.mu.Lock()
	pendingAtConstruction := b2.pending != nil
	b2.mu.Unlock()
	if !pendingAtConstruction {
		t.Fatal("acceptor did not mint the construction-time proposal the test exists for")
	}

	aopts := base
	aopts.ResumeStats = &stats
	a2, err := ResumeConn(ca, rotA.View(), aopts, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	defer b2.Release()

	// The acceptor processes the resume on its first Recv: send a2 -> b2
	// first. At this point its construction-time proposal must be dead —
	// checked before the reverse exchange, whose NewMessage legitimately
	// mints a fresh (post-resume) proposal under RekeyEvery 1.
	exchange(t, a2, b2, build, r)
	if got := stats.Accepts.Load(); got != 1 {
		t.Fatalf("resume accepts = %d, want 1", got)
	}
	if got := stats.Snapshot().Rejects(); got != 0 {
		t.Fatalf("resume rejects = %d, want 0", got)
	}
	b2.mu.Lock()
	stillPending := b2.pending != nil
	b2.mu.Unlock()
	if stillPending {
		t.Fatal("acceptor's pre-resume proposal survived the resume")
	}

	// The reverse direction makes a2 consume the dead proposal (dropped
	// unread), the resume ack, and the fresh post-resume proposal.
	exchange(t, b2, a2, build, r)

	// The control plane must reconverge: the next boundary proposes under
	// the resumed family and the handshake completes.
	clock.Advance(time.Minute) // epoch 3; RekeyEvery 1 on b2 re-proposes
	exchange(t, b2, a2, build, r)
	exchange(t, a2, b2, build, r)
	exchange(t, b2, a2, build, r)
	// Both lineages start with the ticket's boundary and extend with the
	// post-resume rekey; a further handshake may still be in flight on
	// one side (RekeyEvery 1 proposes every epoch), so the completed
	// prefix must agree rather than the lengths.
	fa, sa := lineageOf(t, a2)
	fb, sb := lineageOf(t, b2)
	if len(fb) < 2 || len(fa) < len(fb) {
		t.Fatalf("post-resume rekey did not reconverge: lineages %v vs %v", fa, fb)
	}
	for i := range fb {
		if fa[i] != fb[i] || sa[i] != sb[i] {
			t.Fatalf("lineages diverged at %d: %v/%v vs %v/%v", i, fa, sa, fb, sb)
		}
	}
}

// TestResumeRejections drives every acceptor-side rejection path with
// crafted frames from a raw transport and checks each is counted under
// its reason — the observability half of the forgery defenses.
func TestResumeRejections(t *testing.T) {
	build := specCases[0].build

	mkState := func(epoch uint64) *resumeState {
		return &resumeState{epoch: epoch, bytesMoved: 64, sinceRekey: 64}
	}
	newAcceptor := func(t *testing.T, opts Options, seed int64) (*Conn, *Transport, *metrics.ResumeCounters, *core.Rotation) {
		t.Helper()
		rotA, rotB := newTestRotations(t, seed)
		var stats metrics.ResumeCounters
		opts.ResumeStats = &stats
		ca, cb := newPipe()
		acc, err := NewConn(cb, rotB.View(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(acc.Release)
		return acc, NewTransport(ca), &stats, rotA
	}

	t.Run("forged-ticket", func(t *testing.T) {
		acc, tr, stats, _ := newAcceptor(t, Options{}, 60)
		if err := tr.sendFrameAt(frame.KindResume, 0, bytes.Repeat([]byte{0xAB}, 80)); err != nil {
			t.Fatal(err)
		}
		if _, err := acc.Recv(); err == nil {
			t.Fatal("forged ticket accepted")
		} else if !errors.Is(err, core.ErrTicketInvalid) {
			t.Fatalf("forged ticket error = %v, want ErrTicketInvalid", err)
		}
		if got := stats.RejectedForged.Load(); got != 1 {
			t.Fatalf("forged rejects = %d, want 1", got)
		}
	})

	t.Run("bit-flipped-ticket", func(t *testing.T) {
		acc, tr, stats, rotA := newAcceptor(t, Options{}, 61)
		ticket, err := rotA.View().SealResume(mkState(0).encode())
		if err != nil {
			t.Fatal(err)
		}
		ticket[len(ticket)/2] ^= 0x01
		if err := tr.sendFrameAt(frame.KindResume, 0, ticket); err != nil {
			t.Fatal(err)
		}
		if _, err := acc.Recv(); err == nil {
			t.Fatal("bit-flipped ticket accepted")
		}
		if got := stats.RejectedForged.Load(); got != 1 {
			t.Fatalf("forged rejects = %d, want 1", got)
		}
	})

	t.Run("expired-ticket", func(t *testing.T) {
		clock := sched.NewFakeClock(schedGenesis)
		schedule := sched.New(schedGenesis, time.Minute).WithClock(clock.Now)
		clock.Advance(40 * time.Minute) // epoch 40
		acc, tr, stats, rotA := newAcceptor(t, Options{Schedule: schedule, ResumeWindow: 16}, 62)
		ticket, err := rotA.View().SealResume(mkState(3).encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.sendFrameAt(frame.KindResume, 3, ticket); err != nil {
			t.Fatal(err)
		}
		if _, err := acc.Recv(); err == nil || !strings.Contains(err.Error(), "expired") {
			t.Fatalf("expired ticket error = %v", err)
		}
		if got := stats.RejectedExpired.Load(); got != 1 {
			t.Fatalf("expired rejects = %d, want 1", got)
		}
	})

	t.Run("far-future-ticket", func(t *testing.T) {
		acc, tr, stats, rotA := newAcceptor(t, Options{}, 63)
		ticket, err := rotA.View().SealResume(mkState(10_000).encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.sendFrameAt(frame.KindResume, 10_000, ticket); err != nil {
			t.Fatal(err)
		}
		if _, err := acc.Recv(); err == nil {
			t.Fatal("far-future ticket accepted")
		}
		if got := stats.RejectedExpired.Load(); got != 1 {
			t.Fatalf("expired rejects = %d, want 1", got)
		}
	})

	t.Run("reframed-epoch", func(t *testing.T) {
		// A real ticket carried under a different header epoch (dodging
		// expiry bounds) must fail the sealed-epoch consistency check.
		acc, tr, stats, rotA := newAcceptor(t, Options{}, 64)
		ticket, err := rotA.View().SealResume(mkState(2).encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.sendFrameAt(frame.KindResume, 7, ticket); err != nil {
			t.Fatal(err)
		}
		if _, err := acc.Recv(); err == nil || !strings.Contains(err.Error(), "contradicts") {
			t.Fatalf("reframed ticket error = %v", err)
		}
		if got := stats.RejectedForged.Load(); got != 1 {
			t.Fatalf("forged rejects = %d, want 1", got)
		}
	})

	t.Run("established-session", func(t *testing.T) {
		rotA, rotB := newTestRotations(t, 65)
		var stats metrics.ResumeCounters
		a, b := resumePair(t, rotA, rotB, Options{ResumeStats: &stats}, Options{ResumeStats: &stats})
		r := rng.New(5)
		exchange(t, a, b, build, r) // traffic: b is established now
		ticket, err := a.Export()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.t.sendFrameAt(frame.KindResume, a.Epoch(), ticket); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err == nil || !strings.Contains(err.Error(), "established") {
			t.Fatalf("established-session resume error = %v", err)
		}
		if got := stats.RejectedState.Load(); got != 1 {
			t.Fatalf("state rejects = %d, want 1", got)
		}
	})
}

// TestResumeStaticUnsupported: static sessions can neither export nor
// resume — their versioner has no secret to seal with.
func TestResumeStaticUnsupported(t *testing.T) {
	proto, err := core.Compile(beaconSpec, core.ObfuscationOptions{PerNode: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := newPipe()
	c, err := NewConn(ca, Fixed(proto.Graph), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if _, err := c.Export(); err == nil {
		t.Fatal("static session exported a ticket")
	}
	if _, err := ResumeConn(ca, Fixed(proto.Graph), Options{}, []byte("x")); err == nil {
		t.Fatal("static session resumed a ticket")
	}
}

// TestResumeVolumeTriggerContinuity: the odometer datum survives
// migration — a session resumed just short of its volume-rekey
// threshold proposes right after crossing it, instead of restarting the
// count from zero.
func TestResumeVolumeTriggerContinuity(t *testing.T) {
	rotA, rotB := newTestRotations(t, 71)
	const limit = 4096
	seedSrc := func() (int64, error) { return 0x4444, nil }
	aopts := Options{RekeyAfterBytes: limit, SeedSource: seedSrc}
	a, b := resumePair(t, rotA, rotB, aopts, Options{})
	r := rng.New(23)
	build := specCases[0].build

	// Move some traffic, but stay under the threshold.
	for a.BytesMoved() < limit/2 {
		exchange(t, a, b, build, r)
	}
	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	moved := a.BytesMoved()

	ca, cb := newPipe()
	b2, err := NewConn(cb, rotB.View(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ResumeConn(ca, rotA.View(), aopts, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	defer b2.Release()
	if got := a2.BytesMoved(); got != moved {
		t.Fatalf("resumed odometer = %d, want %d", got, moved)
	}

	// Crossing the remaining distance triggers the volume rekey: the
	// resumed session remembered how far it already was.
	for a2.BytesMoved() < limit {
		exchange(t, a2, b2, build, r)
	}
	exchange(t, a2, b2, build, r) // consume the proposal window
	exchange(t, b2, a2, build, r) // ack completes
	froms, seeds := lineageOf(t, a2)
	if len(froms) != 1 || seeds[0] != 0x4444 {
		t.Fatalf("volume rekey after resume not completed: lineage %v/%v", froms, seeds)
	}
}

// FuzzResumeTicket fuzzes the ticket state parser — the exact bytes an
// acceptor trusts after the seal tag passes. decodeState must cleanly
// accept or reject, never panic, and accepted states must re-encode to
// the identical bytes (the encoding is canonical, so a ticket cannot
// have two readings).
func FuzzResumeTicket(f *testing.F) {
	// Seed corpus: realistic states (with and without lineage), the
	// truncations, a lineage-count lie, and a non-ascending lineage.
	empty := resumeState{epoch: 3, bytesMoved: 900, sinceRekey: 100, lastRekeyFrom: 2, cacheWindow: 16}
	f.Add(empty.encode())
	rich := resumeState{
		epoch: 40, bytesMoved: 1 << 30, sinceRekey: 1 << 12, lastRekeyFrom: 33, cacheWindow: 16,
		froms: []uint64{5, 17, 33}, seeds: []int64{0x5EED, -44, 0x7FFF_FFFF},
	}
	f.Add(rich.encode())
	f.Add(rich.encode()[:resumeStateFixedLen-1])
	f.Add(rich.encode()[:resumeStateFixedLen+3])
	lied := rich.encode()
	lied[41] = 0xFF // claim 255 rekeys, carry 3
	f.Add(lied)
	desc := resumeState{epoch: 9, froms: []uint64{8, 2}, seeds: []int64{1, 2}}
	f.Add(desc.encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeState(data)
		if err != nil {
			return
		}
		re := st.encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
		if st.sinceRekey > st.bytesMoved {
			t.Fatal("accepted state with inconsistent odometer")
		}
		for i := 1; i < len(st.froms); i++ {
			if st.froms[i] <= st.froms[i-1] {
				t.Fatal("accepted non-ascending lineage")
			}
		}
	})
}

// TestExportCompactsLineage: however many times a session has rekeyed,
// its ticket carries only the active boundary (plus any future one) —
// so long-lived heavy-rekey sessions never outgrow the parser's
// lineage bound — and the compacted ticket still resumes correctly.
func TestExportCompactsLineage(t *testing.T) {
	rotA, rotB := newTestRotations(t, 90)
	a, b := resumePair(t, rotA, rotB, Options{}, Options{})
	r := rng.New(31)
	build := specCases[0].build

	// Three rekeys across manual rotations: lineage of 3 on both views.
	for k := 0; k < 3; k++ {
		exchange(t, a, b, build, r)
		if _, err := a.Rekey(int64(0x1000 + k)); err != nil {
			t.Fatal(err)
		}
		exchange(t, a, b, build, r)
		exchange(t, b, a, build, r)
		if _, err := a.Rotate(); err != nil {
			t.Fatal(err)
		}
		exchange(t, a, b, build, r)
	}
	if froms, _ := lineageOf(t, a); len(froms) != 3 {
		t.Fatalf("setup lineage = %v, want 3 points", froms)
	}

	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := rotA.View().OpenResume(ticket)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.froms) != 1 || st.seeds[0] != 0x1002 {
		t.Fatalf("exported lineage = %v/%v, want the single active point (seed 0x1002)", st.froms, st.seeds)
	}

	// The compacted ticket resumes: both sides agree on the family.
	ca, cb := newPipe()
	b2, err := NewConn(cb, rotB.View(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ResumeConn(ca, rotA.View(), Options{}, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	defer b2.Release()
	exchange(t, a2, b2, build, r)
	exchange(t, b2, a2, build, r)
}

// TestTicketMaxLineage pins the bound alignment between the state
// parser and the seal layer: the longest lineage decodeState admits
// (maxResumeRekeys points) still seals and round-trips, so Export can
// never build a state its own subsystem refuses to carry.
func TestTicketMaxLineage(t *testing.T) {
	rotA, _ := newTestRotations(t, 82)
	st := resumeState{epoch: uint64(maxResumeRekeys) + 5, bytesMoved: 1, cacheWindow: 16}
	for i := 0; i < maxResumeRekeys; i++ {
		st.froms = append(st.froms, uint64(i+1))
		st.seeds = append(st.seeds, int64(i)*3+1)
	}
	ticket, err := rotA.View().SealResume(st.encode())
	if err != nil {
		t.Fatalf("max-lineage state did not seal: %v", err)
	}
	plain, err := rotA.View().OpenResume(ticket)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeState(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.froms) != maxResumeRekeys {
		t.Fatalf("round-tripped lineage of %d points, want %d", len(back.froms), maxResumeRekeys)
	}
}

// TestTicketSealRoundtrip pins the seal layer's properties from the
// session layer's perspective: a ticket opens under any view sharing
// the base seed, fails under a different base seed, and every
// single-byte corruption is rejected.
func TestTicketSealRoundtrip(t *testing.T) {
	rotA, _ := newTestRotations(t, 80)
	other, err := core.NewRotation(beaconSpec, core.ObfuscationOptions{PerNode: 2, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	st := resumeState{epoch: 12, bytesMoved: 4096, sinceRekey: 512, lastRekeyFrom: 9,
		cacheWindow: 16, froms: []uint64{9}, seeds: []int64{0x1111}}
	plain := st.encode()
	ticket, err := rotA.View().SealResume(plain)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rotA.View().OpenResume(ticket)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plain) {
		t.Fatal("seal/open did not round-trip")
	}
	if bytes.Contains(ticket, plain[4:20]) {
		t.Fatal("ticket carries state bytes in the clear")
	}
	if _, err := other.View().OpenResume(ticket); err == nil {
		t.Fatal("ticket opened under a different base seed")
	}
	for i := range ticket {
		mut := append([]byte(nil), ticket...)
		mut[i] ^= 0x80
		if _, err := rotA.View().OpenResume(mut); err == nil {
			t.Fatalf("ticket with byte %d corrupted still opened", i)
		}
	}
}
