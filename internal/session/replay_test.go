package session

import (
	"fmt"
	"strings"
	"testing"

	"protoobf/internal/frame"
	"protoobf/internal/metrics"
	"protoobf/internal/rng"
)

// exportAfterRekey runs a session pair through a rekey and some traffic
// and exports a resumable ticket from a.
func exportAfterRekey(t *testing.T, a, b *Conn, r *rng.R) []byte {
	t.Helper()
	build := specCases[0].build
	exchange(t, a, b, build, r)
	if _, err := a.Rekey(0x5EED); err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)
	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	return ticket
}

// The replay-gap regression test: with a shared ReplayCache on the
// acceptor side, the second presentation of one ticket is refused and
// counted, even though it lands on a brand-new acceptor session.
func TestResumeReplayRejected(t *testing.T) {
	rotA, rotB := newTestRotations(t, 77)
	r := rng.New(5)
	a, b := resumePair(t, rotA, rotB, Options{}, Options{})
	ticket := exportAfterRekey(t, a, b, r)

	replay := NewReplayCache(0)
	var stats metrics.ResumeCounters
	accept := Options{Replay: replay, ResumeStats: &stats}
	build := specCases[0].build

	// First presentation: accepted.
	ca, cb := newPipe()
	b1, err := NewConn(cb, rotB.View(), accept)
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Release()
	a1, err := ResumeConn(ca, rotA.View(), Options{}, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Release()
	exchange(t, a1, b1, build, r)
	if got := stats.Accepts.Load(); got != 1 {
		t.Fatalf("first resume: accepts = %d, want 1", got)
	}
	if replay.Len() != 1 {
		t.Fatalf("replay cache remembers %d tickets, want 1", replay.Len())
	}

	// Second presentation of the same ticket, fresh acceptor session
	// sharing the cache: refused, counted as replay.
	ca2, cb2 := newPipe()
	b2, err := NewConn(cb2, rotB.View(), accept)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release()
	a2, err := ResumeConn(ca2, rotA.View(), Options{}, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	m, err := a2.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := specCases[0].build(m.Scope(), r); err != nil {
		t.Fatal(err)
	}
	if err := a2.Send(m); err != nil {
		t.Fatal(err)
	}
	_, err = b2.Recv()
	if err == nil || !strings.Contains(err.Error(), "single-use") {
		t.Fatalf("replayed resume: err = %v, want single-use rejection", err)
	}
	if got := stats.RejectedReplayed.Load(); got != 1 {
		t.Fatalf("RejectedReplayed = %d, want 1", got)
	}
	if got := stats.Accepts.Load(); got != 1 {
		t.Fatalf("accepts after replay = %d, want still 1", got)
	}
	// Rejects() aggregates the new reason.
	if got := stats.Snapshot().Rejects(); got != 1 {
		t.Fatalf("Rejects() = %d, want 1", got)
	}
}

// A forged ticket must still land in the forged bucket, not replay:
// the replay gate runs only after authenticity, so garbage cannot
// pollute the cache. ResumeConn refuses a forged ticket client-side,
// so drive the acceptor with a raw transport.
func TestForgedTicketStillCountsForged(t *testing.T) {
	rotA, rotB := newTestRotations(t, 78)
	ticket, err := rotA.View().SealResume((&resumeState{epoch: 0, bytesMoved: 64, sinceRekey: 64}).encode())
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), ticket...)
	forged[len(forged)-1] ^= 0x01 // tag byte

	replay := NewReplayCache(0)
	var stats metrics.ResumeCounters
	ca, cb := newPipe()
	bc, err := NewConn(cb, rotB.View(), Options{Replay: replay, ResumeStats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Release()
	tr := NewTransport(ca)
	if err := tr.sendFrameAt(frame.KindResume, 0, forged); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Recv(); err == nil {
		t.Fatal("forged ticket accepted")
	}
	if got := stats.RejectedForged.Load(); got != 1 {
		t.Fatalf("RejectedForged = %d, want 1", got)
	}
	if got := stats.RejectedReplayed.Load(); got != 0 {
		t.Fatalf("RejectedReplayed = %d, want 0 (forged tickets must not reach the replay gate)", got)
	}
	if replay.Len() != 0 {
		t.Fatalf("replay cache witnessed a forged ticket (len %d)", replay.Len())
	}
}

// With ReissueTickets on the acceptor, a committed rekey pushes a fresh
// ticket in-band; the initiator stores it and can resume with it on a
// fresh byte stream — closing the migrate-then-rekey-then-migrate loop.
func TestTicketReissueAfterRekey(t *testing.T) {
	rotA, rotB := newTestRotations(t, 79)
	r := rng.New(5)
	build := specCases[0].build
	a, b := resumePair(t, rotA, rotB, Options{}, Options{ReissueTickets: true})

	if a.StoredTicket() != nil {
		t.Fatal("ticket stored before any rekey")
	}
	exchange(t, a, b, build, r)
	if _, err := a.Rekey(0x1CEE); err != nil {
		t.Fatal(err)
	}
	// The ack commits the rekey on a; b's re-issued ticket follows the
	// ack on the same stream, so one more b->a exchange delivers it.
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)

	ticket := a.StoredTicket()
	if ticket == nil {
		t.Fatal("no ticket re-issued after rekey")
	}
	// The pushed ticket resumes a fresh byte stream, replay cache and
	// all: the re-issued ticket is a distinct single use.
	replay := NewReplayCache(0)
	ca, cb := newPipe()
	b2, err := NewConn(cb, rotB.View(), Options{Replay: replay})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release()
	a2, err := ResumeConn(ca, rotA.View(), Options{}, ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	exchange(t, a2, b2, build, r)
	exchange(t, b2, a2, build, r)
	if got, want := lineageOf2(t, a2), lineageOf2(t, b2); got != want {
		t.Fatalf("lineage mismatch after re-issued resume: %s vs %s", got, want)
	}
}

// Accepting a resume also re-issues: the migrated session leaves the
// handshake holding a fresh ticket for its next migration, instead of
// a spent one.
func TestTicketReissueAfterResume(t *testing.T) {
	rotA, rotB := newTestRotations(t, 80)
	r := rng.New(5)
	build := specCases[0].build
	a, b := resumePair(t, rotA, rotB, Options{}, Options{})
	first := exportAfterRekey(t, a, b, r)

	ca, cb := newPipe()
	b2, err := NewConn(cb, rotB.View(), Options{ReissueTickets: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release()
	a2, err := ResumeConn(ca, rotA.View(), Options{}, first)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	// The resume-ack and the re-issued ticket both precede b2's first
	// data frame; a round trip drains them.
	exchange(t, a2, b2, build, r)
	exchange(t, b2, a2, build, r)

	next := a2.StoredTicket()
	if next == nil {
		t.Fatal("no ticket re-issued after resume accept")
	}
	if string(next) == string(first) {
		t.Fatal("re-issued ticket identical to the spent one")
	}
	// And the fresh ticket works.
	ca3, cb3 := newPipe()
	b3, err := NewConn(cb3, rotB.View(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Release()
	a3, err := ResumeConn(ca3, rotA.View(), Options{}, next)
	if err != nil {
		t.Fatal(err)
	}
	defer a3.Release()
	exchange(t, a3, b3, build, r)
}

// InspectTicket opens a ticket without building a session — the gateway
// uses it to route on the ticket's family.
func TestInspectTicket(t *testing.T) {
	rotA, rotB := newTestRotations(t, 81)
	r := rng.New(5)
	a, b := resumePair(t, rotA, rotB, Options{}, Options{})
	build := specCases[0].build

	// Un-rekeyed ticket: base family, no lineage.
	exchange(t, a, b, build, r)
	fresh, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectTicket(rotA.View(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rekeyed {
		t.Fatal("un-rekeyed ticket reports a rekey lineage")
	}
	if info.Epoch != a.Epoch() {
		t.Fatalf("ticket epoch = %d, want %d", info.Epoch, a.Epoch())
	}

	// Rekeyed ticket: Family is the last rekey seed.
	const seed = int64(0xC0FFEE)
	if _, err := a.Rekey(seed); err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b, build, r)
	exchange(t, b, a, build, r)
	rekeyed, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	info, err = InspectTicket(rotA.View(), rekeyed)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rekeyed {
		t.Fatal("rekeyed ticket reports no lineage")
	}
	if info.Family != seed {
		t.Fatalf("ticket family = %#x, want %#x", info.Family, seed)
	}

	// Garbage and truncation are loud errors, not zero values.
	if _, err := InspectTicket(rotA.View(), []byte("not a ticket, not even close")); err == nil {
		t.Fatal("garbage ticket inspected without error")
	}
	if _, err := InspectTicket(rotA.View(), rekeyed[:len(rekeyed)-1]); err == nil {
		t.Fatal("truncated ticket inspected without error")
	}
}

// lineageOf2 renders a session's rekey lineage as a comparable string.
func lineageOf2(t *testing.T, c *Conn) string {
	t.Helper()
	froms, seeds := lineageOf(t, c)
	return fmt.Sprintf("%v/%v", froms, seeds)
}

// ReplayCache is bounded: old tickets age out instead of growing the
// cache without limit.
func TestReplayCacheBounded(t *testing.T) {
	rc := NewReplayCache(4)
	tickets := make([][]byte, 6)
	for i := range tickets {
		tickets[i] = []byte{byte(i), 0xAA, 0xBB}
		if rc.Witness(tickets[i]) {
			t.Fatalf("fresh ticket %d reported as replay", i)
		}
	}
	if rc.Len() != 4 {
		t.Fatalf("cache len = %d, want 4", rc.Len())
	}
	if !rc.Witness(tickets[5]) {
		t.Fatal("recent ticket not remembered")
	}
	if rc.Witness(tickets[0]) {
		t.Fatal("evicted ticket still remembered")
	}
}
