package session

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"protoobf/internal/frame"
	"protoobf/internal/graph"
	"protoobf/internal/metrics"
	"protoobf/internal/msgtree"
	"protoobf/internal/session/sched"
	"protoobf/internal/session/shape"
	"protoobf/internal/trace"
	"protoobf/internal/wire"
)

// Versioner provides the (transformed) message-format graph of each
// dialect epoch. core.Rotation is the canonical implementation; Fixed
// pins every epoch to one graph. The interface deliberately traffics in
// graphs rather than core.Protocol so the session layer sits below the
// orchestration layer (core imports codegen; the protocol applications
// import session).
type Versioner interface {
	Graph(epoch uint64) (*graph.Graph, error)
}

// Rekeyer is the optional Versioner extension behind the in-band rekey
// handshake: switching the dialect family to a fresh master seed for
// every epoch >= from. core.Rotation implements it; Fixed does not, so
// static sessions refuse to rekey.
type Rekeyer interface {
	Rekey(from uint64, seed int64) error
}

// Padder is the optional Versioner extension that masks control-frame
// payloads: a deterministic pad both peers derive from their shared
// secret (the spec/seed family), applied by XOR. Without it control
// payloads travel unmasked, which is only acceptable when the byte
// stream itself is protected.
type Padder interface {
	ControlPad(epoch uint64, n int) []byte
}

// Fixed returns a Versioner that serves the same dialect for every
// epoch, for peers that frame with the session transport but do not
// rotate.
func Fixed(g *graph.Graph) Versioner { return fixed{g} }

type fixed struct{ g *graph.Graph }

func (f fixed) Graph(uint64) (*graph.Graph, error) { return f.g, nil }

// DefaultMaxEpochLead bounds how far ahead of the current epoch an
// incoming frame's epoch may point. Compiling a dialect costs real CPU
// and the version cache is per-epoch, so without a bound a forged epoch
// header would let a peer force arbitrary compilation work (and cache
// growth) with a single garbage frame. Cooperating peers rotate one
// epoch at a time — and wall-clock scheduled peers advance their own
// epoch locally before checking the bound — so any small bound is
// generous.
const DefaultMaxEpochLead = 64

// DefaultCacheWindow bounds how many dialect epochs a Conn keeps
// compiled. A session touches the current epoch, a few stale epochs with
// frames still in flight, and the rekey target; evicted epochs recompile
// deterministically on demand, so the window keeps long-lived sessions
// at O(window) memory however many epochs they cross.
const DefaultCacheWindow = 16

// Options configures the rotation control plane of a Conn. The zero
// value gives a manually rotated session with default bounds — the
// pre-control-plane behavior.
type Options struct {
	// Schedule, when non-nil, derives the send epoch from coarse
	// wall-clock time: the session adopts the schedule's epoch on every
	// NewMessage/Recv (and at open), so two peers sharing a schedule
	// converge on the same dialect with no coordination, even after a
	// partition. Nil means epochs move only via Advance/Rotate or by
	// following the peer.
	Schedule *sched.Scheduler

	// RekeyEvery, when nonzero, proposes an in-band rekey (fresh master
	// seed for the dialect family) every RekeyEvery epochs. Either peer
	// may propose; crossed proposals settle by a deterministic
	// tie-break. Requires a Versioner implementing Rekeyer, and the
	// connection must own that Versioner exclusively — a rekey mutates
	// it, which would desynchronize other connections sharing it.
	RekeyEvery uint64

	// RekeyAfterBytes, when nonzero, proposes an in-band rekey once
	// that many bytes of framed traffic (payloads plus epoch headers,
	// both directions) have moved since the last rekey boundary — the
	// ScrambleSuit-style volume trigger: a session that moves a lot of
	// data rotates its seed family by traffic volume, not just by
	// epoch count, bounding how much ciphertext any one family covers.
	// Cover frames do not count: the receiver discards them uncounted,
	// so counting them on the sending side would split the odometers.
	// It composes with RekeyEvery; whichever trigger fires first
	// proposes, and one proposal in flight gates both. Requires a
	// Versioner implementing Rekeyer.
	RekeyAfterBytes uint64

	// CacheWindow bounds the per-connection dialect cache: 0 means
	// DefaultCacheWindow, negative means unbounded. Messages must be
	// sent within CacheWindow epochs of composition or Send rejects
	// them as belonging to an evicted dialect.
	CacheWindow int

	// MaxEpochLead overrides DefaultMaxEpochLead when nonzero.
	MaxEpochLead uint64

	// ResumeWindow bounds how many epochs behind the session's current
	// horizon a resumption ticket's epoch may lie before the acceptor
	// rejects it as expired: the migration subsystem's ticket lifetime,
	// measured in epochs. 0 means DefaultResumeWindow.
	ResumeWindow uint64

	// ResumeStats, when non-nil, receives the session's migration
	// activity (tickets exported, resumes accepted/rejected) — how the
	// endpoint layer aggregates per-session resume events into one
	// observable counter block.
	ResumeStats *metrics.ResumeCounters

	// SeedSource supplies fresh master seeds for automatic rekeying.
	// Nil draws from crypto/rand and fails closed when the system
	// entropy source is unavailable — the session reports the error and
	// keeps its current family rather than rekeying from predictable
	// material. Tests inject a deterministic source.
	SeedSource func() (int64, error)

	// Shape, when non-nil, turns on traffic shaping: every data frame is
	// padded to a profile-sampled length (and split at the profile MTU),
	// departures are paced by sampled inter-frame gaps, and idle
	// sessions emit cover frames. Shaping is symmetric — both peers must
	// carry the same profile, exactly like the (spec, seed) contract —
	// because pad bytes ride inside the framed payload and the receiver
	// must strip them. Cover frames alone are compatible with unshaped
	// peers: every session discards frame.KindCover. The profile must
	// Validate or the constructor rejects it.
	Shape *shape.Profile

	// ShapeClock and ShapeSleep inject the shaper's time source and
	// delay primitive. Nil means time.Now and time.Sleep. A non-nil
	// ShapeClock marks the session as simulated: the idle cover
	// scheduler goroutine is not started (the simulation pumps
	// emitCoverIfIdle itself), which is how captures and tests shape
	// traffic deterministically with zero real sleeping.
	ShapeClock func() time.Time
	ShapeSleep func(time.Duration)

	// ShapeStats, when non-nil, receives the session's shaping activity
	// (frames morphed, pad and delay overhead, covers sent/dropped,
	// receive-side rejects) — the shaping analogue of ResumeStats. It is
	// honored even without Shape: an unshaped session still counts
	// covers it discards and unknown frame kinds it rejects.
	ShapeStats *metrics.ShapeCounters

	// Replay, when non-nil, makes resumption tickets single-use on the
	// acceptor side: handleResume consults the cache after the ticket
	// verifies, and a ticket seen before — by any session sharing the
	// cache — is refused with a counted replay reject. Endpoints share
	// one cache across their sessions; a gateway shares one across a
	// fleet.
	Replay *ReplayCache

	// ReissueTickets, when set, pushes a freshly exported resumption
	// ticket to the peer (a frame.KindTicket control frame) after every
	// committed rekey and after accepting a resume. With single-use
	// tickets this is what keeps a session migratable: the ticket it
	// presented is spent, and a later rekey would invalidate the old
	// lineage anyway, so the acceptor re-arms the peer with a current
	// one. Requires a Versioner that can export tickets (TicketSealer +
	// Lineage).
	ReissueTickets bool

	// Latency, when non-nil, receives the session's latency
	// observations — epoch-boundary crossings, rekey handshake round
	// trips, resume handshake round trips — how the endpoint layer
	// aggregates per-session timings into one histogram block.
	Latency *metrics.LatencyCounters

	// Trace, when non-nil, receives the session's structured lifecycle
	// events (open/close, epoch crossings, rekey and resume handshake
	// steps, cover bursts) in a bounded ring shared across the
	// endpoint. TraceID labels this session's events in the ring;
	// endpoints allocate it via Trace.NextSession. A nil Trace costs a
	// nil-check per would-be event.
	Trace   *trace.Ring
	TraceID uint64
}

// Conn is an obfuscated message session over a byte stream: Send
// serializes a message with the dialect of the epoch it was composed for,
// Recv decodes each frame with the protocol version named by the frame's
// epoch header, and the epoch advances mid-session — by wall-clock
// schedule, by explicit Advance/Rotate, or by following the peer.
//
// Conn is safe for concurrent Send, Recv, NewMessage, Advance and Rekey
// calls.
type Conn struct {
	t  *Transport
	rw io.ReadWriter // the underlying stream, closed by Close when it can be

	ec EpochCore // epoch state shared with the datagram transport; raises t's epoch

	// MaxEpochLead is the highest accepted distance between an incoming
	// frame's epoch and the current epoch (default DefaultMaxEpochLead).
	// Scheduled sessions measure the distance after adopting their own
	// schedule epoch, so a long partition does not trip the bound.
	MaxEpochLead uint64

	rekeyEvery      uint64
	rekeyAfterBytes uint64
	seedSource      func() (int64, error)
	resumeWindow    uint64 // ticket lifetime in epochs (acceptor side)
	resumeStats     *metrics.ResumeCounters

	// bytesMoved counts framed data traffic in both directions (payload
	// plus epoch header; covers excluded), the odometer behind the volume
	// rekey trigger. It is atomic so Send and Recv bump it without
	// sharing a lock.
	bytesMoved atomic.Uint64

	mu            sync.Mutex // guards rekey and migration state
	pending       *rekeyProposal
	abandoned     *rekeyProposal // unacked proposal the schedule outran; honored if its ack arrives late
	lastRekeyFrom uint64
	rekeyBase     uint64 // bytesMoved at the last rekey boundary (volume trigger datum)

	// Migration state (guarded by mu): resumed marks a session that was
	// minted from a ticket or adopted one in-band (a session resumes at
	// most once); await is the resuming side's pending handshake, and
	// resumeDrops bounds how many peer control frames it may discard
	// while the ack is outstanding (see handleControl).
	resumed     bool
	await       *resumeAwait
	resumeDrops int

	// replay is the shared single-use ticket cache (nil = replays
	// admitted, the pre-fleet behavior); reissue enables in-band ticket
	// re-issue; peerTicket (guarded by mu) is the latest verified
	// ticket the peer pushed, retrievable via StoredTicket.
	replay     *ReplayCache
	reissue    bool
	peerTicket []byte

	smu  sync.Mutex // serializes Send's buffer reuse
	wbuf []byte

	pmu  sync.Mutex // serializes Recv's buffer reuse
	rbuf []byte

	// Traffic shaping (see shaping.go): shaper is non-nil iff
	// Options.Shape was set; shapeStats is honored regardless. The
	// reassembly state (guarded by pmu, like rbuf) folds MTU-split
	// fragments back into one message: reasm accumulates chunks,
	// reasmEpoch pins the epoch a fragment stream started at, and
	// reasmWire counts the framed bytes buffered so far so the volume
	// odometer moves once per message, not per fragment.
	shaper     *shaper
	shapeStats *metrics.ShapeCounters
	reasm      []byte
	reasmEpoch uint64
	reasmWire  uint64

	stopCover     chan struct{} // closed by stopCoverLoop; nil without a cover goroutine
	coverDone     chan struct{} // closed when the cover goroutine has exited
	stopCoverOnce sync.Once
}

// rekeyProposal is an in-flight rekey handshake: we proposed switching
// to seed from epoch from onward and await the peer's ack. at is when
// the proposal hit the wire — the rekey RTT measurement datum (zero on
// proposals reconstructed from the wire for matching).
type rekeyProposal struct {
	from uint64
	seed int64
	at   time.Time
}

// matches reports whether an ack for (from, seed) completes this
// proposal. Field comparison, not struct equality: the timestamp is
// local bookkeeping the peer never echoes.
func (p *rekeyProposal) matches(from uint64, seed int64) bool {
	return p != nil && p.from == from && p.seed == seed
}

// rekeyAbandonLead is how many epochs of schedule progress past an
// unacked proposal's boundary the proposer tolerates before abandoning
// it: holding the epoch below the boundary forever would let a peer
// that stops reading (or a raw Transport peer, which discards control
// frames) freeze dialect rotation permanently. An abandoned proposal is
// still honored if its ack arrives late (the acker switched family when
// it acked), so the two sides reconverge.
const rekeyAbandonLead = 8

// NewConn opens a session over rw; the zero Options give a manually
// rotated session with the default cache window. The epoch-0 dialect is
// compiled (or fetched from the Versioner's cache) eagerly so
// configuration errors surface here rather than on the first message.
// With a Schedule, the session adopts the schedule's current wall-clock
// epoch before returning, so its first frames already speak the
// fleet-wide dialect.
func NewConn(rw io.ReadWriter, versions Versioner, opts Options) (*Conn, error) {
	if err := validateShape(opts); err != nil {
		return nil, err
	}
	c := newConn(rw, versions, opts)
	if _, err := c.ec.Dialect(0); err != nil {
		return nil, err
	}
	if err := c.syncSchedule(); err != nil {
		return nil, err
	}
	// The cover scheduler starts only once the session is viable: a
	// constructor that fails must not leave a goroutine writing decoys
	// into the stream.
	c.startCover(opts)
	c.ec.Emit(trace.KindSessionOpen, c.Epoch(), "")
	return c, nil
}

// validateShape rejects an unusable shaping profile at construction,
// where the misconfiguration is actionable — not on the first Send. The
// profile MTU must also fit the frame layer's length word.
func validateShape(opts Options) error {
	if opts.Shape == nil {
		return nil
	}
	if err := opts.Shape.Validate(); err != nil {
		return err
	}
	if opts.Shape.MTU > frame.MaxFrame {
		return fmt.Errorf("session: shaping profile %q MTU %d exceeds the frame limit %d",
			opts.Shape.Name, opts.Shape.MTU, frame.MaxFrame)
	}
	return nil
}

// newConn builds a session without bringing up any dialect or adopting
// the schedule — the construction half shared by NewConn (which
// starts at epoch 0) and ResumeConn (which starts at a ticket's epoch).
func newConn(rw io.ReadWriter, versions Versioner, opts Options) *Conn {
	lead := opts.MaxEpochLead
	if lead == 0 {
		lead = DefaultMaxEpochLead
	}
	resumeWindow := opts.ResumeWindow
	if resumeWindow == 0 {
		resumeWindow = DefaultResumeWindow
	}
	seedSource := opts.SeedSource
	if seedSource == nil {
		seedSource = randomSeed
	}
	c := &Conn{
		t:               NewTransport(rw),
		rw:              rw,
		MaxEpochLead:    lead,
		rekeyEvery:      opts.RekeyEvery,
		rekeyAfterBytes: opts.RekeyAfterBytes,
		seedSource:      seedSource,
		resumeWindow:    resumeWindow,
		resumeStats:     opts.ResumeStats,
		replay:          opts.Replay,
		reissue:         opts.ReissueTickets,
		wbuf:            frame.GetBuffer(),
		rbuf:            frame.GetBuffer(),
		shapeStats:      opts.ShapeStats,
	}
	c.ec.Init("session", versions, &c.t.epoch, 0, opts)
	if opts.Shape != nil {
		c.shaper = newShaper(opts, versions)
	}
	c.t.maxLead = lead
	return c
}

// Transport exposes the underlying byte layer (raw payload exchange,
// benchmarking).
func (c *Conn) Transport() *Transport { return c.t }

// Release returns the session's pooled buffers to the shared pool. Call
// it once the session is done — typically after closing the underlying
// connection, which remains the owner's job. The session must not be
// used afterwards.
func (c *Conn) Release() {
	c.stopCoverLoop()
	c.smu.Lock()
	frame.PutBuffer(c.wbuf)
	c.wbuf = nil
	c.smu.Unlock()
	c.pmu.Lock()
	frame.PutBuffer(c.rbuf)
	c.rbuf = nil
	c.pmu.Unlock()
}

// Close closes the underlying stream (when it implements io.Closer) and
// releases the session's pooled buffers. It is how sessions handed out
// by the endpoint layer's Dial/Accept are torn down; sessions over a
// stream the caller keeps owning can keep using Release instead. The
// session must not be used after Close.
func (c *Conn) Close() error {
	c.ec.Emit(trace.KindSessionClose, c.Epoch(), "")
	var err error
	if cl, ok := c.rw.(io.Closer); ok {
		err = cl.Close()
	}
	c.Release()
	return err
}

// Epoch returns the current send epoch (lock-free).
func (c *Conn) Epoch() uint64 { return c.t.Epoch() }

// BytesMoved returns the framed data traffic this session has moved in
// both directions (payloads plus epoch headers; cover frames do not
// count) — the odometer behind the Options.RekeyAfterBytes volume
// trigger. Lock-free.
func (c *Conn) BytesMoved() uint64 { return c.bytesMoved.Load() }

// horizon returns the epoch to measure frame plausibility against: the
// send epoch, or the schedule's current epoch when that is ahead. A
// receiver that has been blocked in Recv across many intervals measures
// incoming frames against wall-clock time rather than its stale send
// epoch, so an honest peer's first post-partition frame is never
// mistaken for a forged far-future epoch.
func (c *Conn) horizon() uint64 {
	cur := c.Epoch()
	if c.ec.schedule != nil {
		if se := c.ec.schedule.Epoch(); se > cur {
			cur = se
		}
	}
	return cur
}

// syncSchedule adopts the schedule's epoch through gateRekey, then
// proposes an automatic rekey when one is due. No-op without a schedule.
func (c *Conn) syncSchedule() error {
	if c.ec.schedule == nil {
		return nil
	}
	if err := c.ec.AdoptSchedule(c.gateRekey); err != nil {
		return err
	}
	return c.maybeAutoRekey()
}

// gateRekey raises the send epoch to a schedule target, but not across
// a pending rekey boundary, which is crossed only once the peer acks. It
// shares one c.mu section with rekey's proposal registration, so no
// proposal slips in between check and raise. A lowered target was
// current moments ago or compiles lazily on first use.
func (c *Conn) gateRekey(target uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.pending; p != nil && target >= p.from {
		if target >= p.from+rekeyAbandonLead {
			// The peer is not acking (not reading, or a raw Transport
			// discarding control frames). Stop gating so rotation
			// continues; honor the ack if it ever arrives.
			c.abandoned, c.pending = p, nil
		} else {
			target = p.from - 1
		}
	}
	c.ec.Raise(target)
	return target
}

// NewMessage returns an empty message for the current epoch's dialect
// (scheduled sessions first adopt the schedule's epoch). The message
// stays bound to that dialect: Send tags it with the epoch it was
// composed for even if the session rotates in between, so an epoch bump
// concurrent with message construction is harmless.
func (c *Conn) NewMessage() (*msgtree.Message, error) {
	if err := c.syncSchedule(); err != nil {
		return nil, err
	}
	return c.ec.NewMessage()
}

// Send serializes m and writes it framed under the epoch whose dialect
// composed it. Steady-state sends reuse the connection's serialization
// buffer and do not allocate. A message composed more than CacheWindow
// epochs ago may have had its dialect evicted, in which case Send
// rejects it.
func (c *Conn) Send(m *msgtree.Message) error {
	epoch, err := c.ec.SendEpoch(m)
	if err != nil {
		return err
	}
	c.smu.Lock()
	defer c.smu.Unlock()
	out, err := wire.SerializeAppend(m, c.wbuf[:0])
	if err != nil {
		return err
	}
	c.wbuf = out
	if c.shaper != nil {
		if err := c.sendShaped(epoch, out); err != nil {
			return err
		}
		return c.maybeVolumeRekey()
	}
	if err := c.t.sendPayloadAt(epoch, out); err != nil {
		return err
	}
	c.bytesMoved.Add(uint64(len(out)) + frame.EpochHeaderLen)
	return c.maybeVolumeRekey()
}

// Recv reads frames until one data frame decodes, handling control
// frames (the rekey handshake) along the way. The data frame is decoded
// with the dialect of the frame's epoch. Receiving an epoch above the
// current send epoch advances it (the follow rule), so one peer's
// rotation pulls the other along — but only after the payload decodes,
// and only within MaxEpochLead of the current epoch: a malformed or
// forged frame can neither move the session's epoch nor force
// compilation of arbitrary dialects. Scheduled sessions adopt their own
// schedule epoch first, so the bound is measured against wall-clock
// time and a peer returning from a long partition resynchronizes
// immediately. Frames from older epochs still decode — their dialects
// stay cached within the window — which tolerates messages in flight
// across a rotation.
func (c *Conn) Recv() (*msgtree.Message, error) {
	if err := c.syncSchedule(); err != nil {
		return nil, err
	}
	c.pmu.Lock()
	defer c.pmu.Unlock()
	for {
		buf, epoch, kind, err := c.t.recvFrame(c.rbuf[:0])
		c.rbuf = buf
		if err != nil {
			return nil, err
		}
		if kind != frame.KindData {
			if err := c.handleControl(kind, epoch, buf); err != nil {
				return nil, err
			}
			continue
		}
		// The horizon is re-read per frame: Recv may have been blocked
		// across many schedule intervals, and the bound must reflect
		// wall-clock time at decode, not at Recv entry.
		if cur := c.horizon(); epoch > cur && epoch-cur > c.MaxEpochLead {
			return nil, fmt.Errorf("session: frame epoch %d is %d ahead of current %d (max lead %d)",
				epoch, epoch-cur, cur, c.MaxEpochLead)
		}
		// Shaped sessions strip the pad trailer first; a fragment goes to
		// the reassembly buffer and the loop keeps reading.
		payload := buf
		if c.shaper != nil {
			p, done, err := c.unshape(epoch, buf)
			if err != nil {
				return nil, err
			}
			if !done {
				continue
			}
			payload = p
		}
		// Count the whole message's framed bytes — the final frame plus
		// any fragments buffered on the way — exactly once.
		wireBytes := uint64(len(buf)) + frame.EpochHeaderLen + c.reasmWire
		c.reasmWire = 0
		g, err := c.ec.Dialect(epoch)
		if err != nil {
			return nil, err
		}
		r := c.ec.Split()
		// The parser copies terminal content out of the payload, so
		// reusing rbuf (or the reassembly buffer) for the next frame
		// cannot corrupt the returned message.
		m, err := wire.Parse(g, payload, r)
		if err != nil {
			return nil, fmt.Errorf("session: epoch %d: %w", epoch, err)
		}
		// Follow the sender's epoch, but never across our own pending
		// rekey boundary: the proposer must not compose frames at or
		// past the boundary until the ack arrives, or it would send
		// old-family bytes at epochs the acked peer has already rekeyed.
		c.mu.Lock()
		follow := epoch
		if p := c.pending; p != nil && follow >= p.from {
			follow = p.from - 1
		}
		c.ec.Raise(follow)
		c.mu.Unlock()
		c.bytesMoved.Add(wireBytes)
		if err := c.maybeVolumeRekey(); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// Advance raises the send epoch to epoch, compiling (and caching) its
// dialect first so a failing epoch never becomes current. Epochs are
// monotonic; advancing to the current epoch or below is a no-op.
func (c *Conn) Advance(epoch uint64) error { return c.ec.Advance(epoch) }

// Rotate advances to the next epoch and returns it, proposing an
// automatic rekey when one is due (Options.RekeyEvery). Scheduled
// sessions normally never call Rotate — the schedule advances them — but
// mixing is safe: epochs are monotonic and settle on the highest value.
func (c *Conn) Rotate() (uint64, error) {
	next := c.Epoch() + 1
	if err := c.Advance(next); err != nil {
		return 0, err
	}
	if err := c.maybeAutoRekey(); err != nil {
		return 0, err
	}
	return next, nil
}

// Rekey proposes switching the dialect family to a fresh master seed
// from the next epoch onward: it sends an in-band proposal carrying
// (epoch, seed) — masked with the pad both peers derive from the shared
// secret — and returns the proposed epoch. The new family is not used
// until the peer acknowledges; the handshake completes on the Recv path
// of both sides. Until then the proposer keeps sending under the old
// family and, if scheduled, holds its epoch just below the boundary
// (for at most rekeyAbandonLead epochs of schedule progress). Only one
// proposal may be in flight at a time.
//
// Rekeying mutates the session's Versioner: a Conn that rekeys (Rekey
// or Options.RekeyEvery) must own its Rotation exclusively. Sharing one
// Rotation across several connections is fine for scheduled or manual
// rotation, but a rekey negotiated on one connection would silently
// switch the family under every other connection's feet.
func (c *Conn) Rekey(seed int64) (uint64, error) {
	if !c.ec.CanRekey() {
		return 0, errors.New("session: versioner does not support rekeying")
	}
	from, ok, err := c.rekey(seed)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, errors.New("session: a rekey is already in progress")
	}
	return from, nil
}

// rekey registers and sends a proposal targeting the next epoch. It
// reports ok=false (not an error) when a proposal is already pending.
// Reading the epoch and registering the proposal happen in the same
// c.mu section syncSchedule uses for its gate-and-advance, so a
// concurrent schedule sync can neither advance past a boundary being
// registered nor have the boundary land at an already-passed epoch.
func (c *Conn) rekey(seed int64) (from uint64, ok bool, err error) {
	c.mu.Lock()
	if c.pending != nil {
		c.mu.Unlock()
		return 0, false, nil
	}
	from = c.t.Epoch() + 1
	c.pending = &rekeyProposal{from: from, seed: seed, at: time.Now()}
	c.abandoned = nil // a new proposal supersedes any abandoned one
	c.lastRekeyFrom = from
	prevBase := c.rekeyBase
	c.rekeyBase = c.bytesMoved.Load()
	c.mu.Unlock()
	if err := c.sendControl(frame.KindRekeyPropose, from, seed); err != nil {
		c.mu.Lock()
		if p := c.pending; p.matches(from, seed) {
			c.pending = nil
			// Restore the volume odometer datum too: a proposal that
			// never reached the wire must not consume the traffic
			// bound (the guard above means no other boundary has
			// reset the base in between).
			c.rekeyBase = prevBase
		}
		c.mu.Unlock()
		return 0, false, err
	}
	c.ec.Emit(trace.KindRekeyPropose, from, "")
	return from, true, nil
}

// maybeAutoRekey proposes a rekey when the session has crossed
// RekeyEvery epochs since the last rekey boundary. Losing the
// registration race to a concurrent proposer is not an error — one
// proposal in flight is exactly the goal.
func (c *Conn) maybeAutoRekey() error {
	if c.rekeyEvery == 0 {
		return nil
	}
	if !c.ec.CanRekey() {
		return nil
	}
	c.mu.Lock()
	due := c.pending == nil && c.t.Epoch()+1 >= c.lastRekeyFrom+c.rekeyEvery
	c.mu.Unlock()
	if !due {
		return nil
	}
	seed, err := c.seedSource()
	if err != nil {
		// Fail closed: no seed, no rekey, and the caller hears about it —
		// continuing silently would leave traffic on a family that was
		// due to rotate.
		return err
	}
	_, _, err = c.rekey(seed)
	return err
}

// maybeVolumeRekey proposes a rekey once RekeyAfterBytes of framed
// traffic have moved since the last rekey boundary — the ScrambleSuit-
// style volume trigger, evaluated after every Send and Recv. Losing
// the registration race to a concurrent proposer (or the peer's
// crossed proposal) is fine: one proposal in flight is the goal, and
// the odometer datum resets at whichever boundary wins.
//
// A failed proposal write is swallowed, not returned: the trigger runs
// after a Send delivered its payload (or a Recv decoded its message),
// and a completed operation must not be reported as failed — rekey()
// already rolled the registration back, and a genuinely broken stream
// surfaces on the next write regardless. A failed seed draw is
// different: the entropy source being down has no later write to
// surface on, so it is returned and fails the operation — better a loud
// error than a session that silently stops honoring its traffic bound.
func (c *Conn) maybeVolumeRekey() error {
	if c.rekeyAfterBytes == 0 {
		return nil
	}
	if !c.ec.CanRekey() {
		return nil
	}
	// The odometer is read under c.mu: rekeyBase is only ever assigned
	// from a bytesMoved.Load() inside this lock, so the base can never
	// exceed a load taken here and the unsigned subtraction cannot
	// wrap (a stale pre-lock load could be outrun by a concurrent
	// boundary reset and fire a spurious immediate rekey).
	c.mu.Lock()
	moved := c.bytesMoved.Load()
	due := c.pending == nil && moved-c.rekeyBase >= c.rekeyAfterBytes
	c.mu.Unlock()
	if !due {
		return nil
	}
	seed, err := c.seedSource()
	if err != nil {
		return err
	}
	_, _, _ = c.rekey(seed)
	return nil
}

// Control-frame payload: a masked magic/epoch/seed triple, encoded by
// the shared codec in internal/frame (the datagram layer conducts the
// same handshake over packets). The magic rejects forged or
// wrong-family control frames after unmasking with overwhelming
// probability.
const (
	controlMagic = frame.ControlMagic
	controlLen   = frame.ControlLen
)

// sendControl writes one masked control frame. The handshake is
// conducted under the pre-boundary family: propose and ack are masked
// with the pad of epoch from-1, which the proposer (not yet switched)
// and the acker (switched from `from` onward only) derive identically —
// masking at the sender's current epoch would make an ack unreadable
// whenever the acker's epoch already sits past the boundary.
func (c *Conn) sendControl(kind byte, from uint64, seed int64) error {
	hdrEpoch := from - 1
	var p [controlLen]byte
	frame.EncodeControl(p[:], from, seed)
	c.ec.MaskControl(hdrEpoch, p[:])
	return c.t.sendFrameAt(kind, hdrEpoch, p[:])
}

// handleControl dispatches one control frame from the Recv loop.
//
// While this side's own resume handshake is unacked, every control frame
// except the awaited KindResumeAck is dropped (bounded by
// resumeDropLimit) rather than processed: the acceptor may have written
// control frames — typically an automatic rekey proposal minted at
// session construction — before it processed our resume frame, and those
// frames are masked under its pre-resume state, unreadable (or worse,
// readable but stale) under the ticket's lineage. The stream is ordered,
// so everything sent after the acceptor's resume ack is post-adoption
// and processed normally.
func (c *Conn) handleControl(kind byte, hdrEpoch uint64, payload []byte) error {
	switch kind {
	case frame.KindResume:
		return c.handleResume(hdrEpoch, payload)
	case frame.KindResumeAck:
		return c.handleResumeAck(hdrEpoch, payload)
	case frame.KindTicket:
		return c.handleTicket(payload)
	case frame.KindCover:
		// Cover traffic is chaff by contract: count it and keep reading.
		// Every session discards covers — shaped or not, resuming or not —
		// which is what lets a shaped peer emit decoys at an unmodified
		// one without breaking it.
		if c.shapeStats != nil {
			c.shapeStats.CoverDropped.Add(1)
		}
		return nil
	case frame.KindRekeyPropose, frame.KindRekeyAck:
	default:
		// Kinds above frame.KindMax are unassigned: reject them loudly
		// (and countably) rather than guessing. Silently skipping unknown
		// kinds would let a tampered stream smuggle arbitrary frames past
		// the session, and misframed garbage would desynchronize later
		// reads anyway.
		if c.shapeStats != nil {
			c.shapeStats.UnknownKindRejects.Add(1)
		}
		return fmt.Errorf("session: unknown frame kind %#02x (highest assigned is %#02x)", kind, frame.KindMax)
	}
	if c.dropPreResumeControl() {
		return nil
	}
	if len(payload) != controlLen {
		return fmt.Errorf("session: control frame of %d bytes, want %d", len(payload), controlLen)
	}
	c.ec.MaskControl(hdrEpoch, payload)
	from, seed, err := frame.DecodeControl(payload)
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	if kind == frame.KindRekeyPropose {
		return c.handlePropose(from, seed)
	}
	return c.handleAck(from, seed)
}

// handlePropose accepts (or deterministically rejects) a peer's rekey
// proposal: apply the new family from the proposed epoch, compile its
// first dialect, ack, and only then cross the boundary. Crossed
// proposals — both peers proposed concurrently — settle without extra
// round-trips: the later boundary wins, ties break toward the larger
// seed, and both peers apply the same rule so exactly one proposal
// survives.
func (c *Conn) handlePropose(from uint64, seed int64) error {
	if from == 0 {
		return errors.New("session: rekey proposal for epoch 0 (the pre-negotiated epoch)")
	}
	cur := c.horizon()
	if from+c.MaxEpochLead <= cur || from > cur+c.MaxEpochLead {
		return fmt.Errorf("session: rekey proposal for epoch %d implausibly far from current %d", from, cur)
	}
	c.mu.Lock()
	if p := c.pending; p != nil {
		ours, theirs := *p, rekeyProposal{from: from, seed: seed}
		if ours.from > theirs.from || (ours.from == theirs.from && uint64(ours.seed) > uint64(theirs.seed)) {
			// Ours wins; the peer applies the same rule and acks ours.
			c.mu.Unlock()
			return nil
		}
		c.pending = nil // theirs wins; our proposal dies unacked
	}
	if from > c.lastRekeyFrom {
		c.lastRekeyFrom = from
	}
	c.mu.Unlock()
	// ApplyRekey compiles the new family's first dialect before we ack,
	// so an ack guarantees the acker is ready to decode it. If the compile
	// or the ack write fails, the family switch is rolled back: the
	// proposer was never acked and stays on the old family, so keeping
	// the switch locally would diverge the two sides for good.
	if err := c.ec.ApplyRekey(from, seed); err != nil {
		return err
	}
	if err := c.sendControl(frame.KindRekeyAck, from, seed); err != nil {
		c.ec.RollbackRekey(from, seed)
		return err
	}
	// The handshake is committed on our side: reset the volume odometer
	// datum now, not at acceptance, so a rolled-back attempt (compile or
	// ack failure above) does not consume the traffic bound.
	c.mu.Lock()
	c.rekeyBase = c.bytesMoved.Load()
	c.mu.Unlock()
	if err := c.Advance(from); err != nil {
		return err
	}
	c.ec.Emit(trace.KindRekeyAck, from, "peer")
	// The rekey invalidated any ticket the peer was holding (its
	// lineage predates the new family): re-arm it with a current one.
	return c.maybeReissue()
}

// handleAck completes our own proposal — pending, or abandoned by the
// schedule outrunning it (the acker switched family the moment it
// acked, so a late ack must still switch ours). Acks matching neither
// (stale, superseded by a tie-break) are ignored.
func (c *Conn) handleAck(from uint64, seed int64) error {
	var proposedAt time.Time
	c.mu.Lock()
	switch {
	case c.pending.matches(from, seed):
		proposedAt = c.pending.at
		c.pending = nil
	case c.abandoned.matches(from, seed):
		proposedAt = c.abandoned.at
		c.abandoned = nil
	default:
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if err := c.ec.ApplyRekey(from, seed); err != nil {
		return err
	}
	if err := c.Advance(from); err != nil {
		return err
	}
	if c.ec.lat != nil && !proposedAt.IsZero() {
		c.ec.lat.RekeyRTT.ObserveDuration(time.Since(proposedAt))
	}
	c.ec.Emit(trace.KindRekeyAck, from, "")
	// Same as handlePropose: the committed rekey spent the peer's old
	// ticket lineage, so push a fresh one if re-issue is on.
	return c.maybeReissue()
}

// entropy is the randomness behind the default SeedSource. It is a
// package variable only so tests can prove the fail-closed path; nothing
// else may reassign it.
var entropy io.Reader = crand.Reader

// randomSeed draws a fresh positive master seed for automatic rekeying.
// It fails closed: when the system entropy source errors there is no
// fallback — a rekey seeded from a guessable value (a timestamp, say)
// would downgrade the whole dialect family to brute-forceable material
// while looking exactly like a healthy rotation on the wire.
func randomSeed() (int64, error) {
	var b [8]byte
	if _, err := io.ReadFull(entropy, b[:]); err != nil {
		return 0, fmt.Errorf("session: rekey seed entropy unavailable: %w", err)
	}
	return int64(binary.BigEndian.Uint64(b[:]) >> 1), nil
}

// Pair connects two in-memory peers with a buffered duplex, each
// speaking the dialect family of its Versioner with its own options (how
// the tests give each peer an independently clocked schedule). Both
// sides must be built from the same (spec, options) so their epochs
// agree, exactly as deployed peers would be (paper §VIII).
func Pair(a, b Versioner, aopts, bopts Options) (*Conn, *Conn, error) {
	ca, cb := newPipe()
	x, err := NewConn(ca, a, aopts)
	if err != nil {
		return nil, nil, err
	}
	y, err := NewConn(cb, b, bopts)
	if err != nil {
		return nil, nil, err
	}
	return x, y, nil
}
