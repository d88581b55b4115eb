// Package trace is the session event tracer: a per-endpoint bounded
// ring buffer of structured lifecycle events — session open/close,
// epoch crossings, rekey handshake steps, resume accept/reject,
// cover bursts, datagram rejects — that a misbehaving deployment can
// be debugged from after the fact, the way fleet operators actually
// work (scrape /trace.json, read the last N events) rather than by
// grepping logs.
//
// The tracer is built to be left enabled in production: emitting an
// event is one short critical section writing into a preallocated
// ring slot (no allocation once the ring is warm), and a disabled
// tracer is a nil *Ring whose Emit is a nil-check — a few nanoseconds
// on the hot path, pinned by BenchmarkEmitDisabled.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one lifecycle event type.
type Kind uint8

const (
	// KindSessionOpen records a session coming up (fresh or resumed);
	// Epoch is its starting epoch.
	KindSessionOpen Kind = iota + 1
	// KindSessionClose records a session shutting down.
	KindSessionClose
	// KindEpochCross records a stream or packet session adopting a new
	// schedule epoch; Epoch is the epoch crossed into.
	KindEpochCross
	// KindRekeyPropose records a rekey proposal sent; Epoch is the
	// proposed boundary.
	KindRekeyPropose
	// KindRekeyAck records a rekey handshake completing on the
	// proposing side; Epoch is the committed boundary.
	KindRekeyAck
	// KindRekeyRollback records a rekey point dropped again because
	// the handshake step that should have committed it failed.
	KindRekeyRollback
	// KindResumeAccept records the acceptor side admitting a resume
	// handshake; Epoch is the resumed session's epoch.
	KindResumeAccept
	// KindResumeReject records the acceptor side turning a resume
	// away; Detail carries the reason (forged, expired, state,
	// replayed).
	KindResumeReject
	// KindCoverBurst records cover (decoy) traffic emitted: an idle
	// cover frame, a cover-loop burst, or a datagram cover packet.
	KindCoverBurst
	// KindDgramReject records a datagram packet dropped; Detail
	// carries the reason (stale, future, parse, malformed).
	KindDgramReject
)

var kindNames = [...]string{
	KindSessionOpen:   "session-open",
	KindSessionClose:  "session-close",
	KindEpochCross:    "epoch-cross",
	KindRekeyPropose:  "rekey-propose",
	KindRekeyAck:      "rekey-ack",
	KindRekeyRollback: "rekey-rollback",
	KindResumeAccept:  "resume-accept",
	KindResumeReject:  "resume-reject",
	KindCoverBurst:    "cover-burst",
	KindDgramReject:   "dgram-reject",
}

// String returns the kind's stable wire name (the /trace.json value).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind by name, so Events marshal to readable
// JSON without a client-side enum table.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name back; unknown names decode to 0
// rather than erroring, so newer producers don't break older readers.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one traced lifecycle event. Seq is unique and strictly
// increasing per ring — the total order of what happened, immune to
// clock steps. Session groups the events of one session (ids are
// assigned by the ring, 0 when the emitter had none). Epoch and
// Detail carry per-kind context.
type Event struct {
	Seq     uint64    `json:"seq"`
	At      time.Time `json:"at"`
	Kind    Kind      `json:"kind"`
	Session uint64    `json:"session,omitempty"`
	Epoch   uint64    `json:"epoch,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// Ring is a bounded ring buffer of Events. A nil *Ring is a valid,
// disabled tracer: every method no-ops (Emit is a nil-check), which is
// how the hot paths stay unconditional. Ring is safe for concurrent
// use.
type Ring struct {
	clock func() time.Time

	sess atomic.Uint64 // session id allocator

	mu   sync.Mutex
	buf  []Event
	next int    // next slot to overwrite
	full bool   // buf has wrapped at least once
	seq  uint64 // next sequence number
}

// New returns a ring holding the newest n events, stamped with
// time.Now. n < 1 is clamped to 1.
func New(n int) *Ring { return NewWithClock(n, time.Now) }

// NewWithClock is New with an injectable clock — deterministic
// timestamps for tests, or a cached coarse clock for deployments that
// find time.Now too hot.
func NewWithClock(n int, clock func() time.Time) *Ring {
	if n < 1 {
		n = 1
	}
	if clock == nil {
		clock = time.Now
	}
	return &Ring{clock: clock, buf: make([]Event, 0, n)}
}

// Enabled reports whether events are being recorded (false on nil).
func (r *Ring) Enabled() bool { return r != nil }

// Cap returns the ring's bound (0 on nil).
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// NextSession allocates a session id for labeling subsequent events.
// Ids are unique per ring and never 0; a nil ring returns 0 (events
// of a disabled tracer are never seen anyway).
func (r *Ring) NextSession() uint64 {
	if r == nil {
		return 0
	}
	return r.sess.Add(1)
}

// Emit records one event, overwriting the oldest when the ring is
// full. On a nil ring it is a nil-check and a return.
func (r *Ring) Emit(session uint64, kind Kind, epoch uint64, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := Event{Seq: r.seq, At: r.clock(), Kind: kind, Session: session, Epoch: epoch, Detail: detail}
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
			// full stays true once set; setting it on wrap is enough.
		}
		r.full = true
	}
	r.mu.Unlock()
}

// Len returns the number of events currently held (0 on nil).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Events returns a copy of the buffered events, oldest first — always
// the newest Cap() (or fewer) events, with strictly increasing Seq.
// Nil on a nil ring.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}
