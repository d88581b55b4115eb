package session

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"protoobf/internal/frame"
	"protoobf/internal/trace"
)

// Session migration: a live session's control-plane state — current
// epoch, rekey lineage, traffic odometer, cache-window hint — can be
// exported as a compact sealed ticket (Conn.Export) and replayed onto a
// brand-new byte stream (ResumeConn), so a dropped TCP connection no
// longer loses the session. The obfuscation is stateful — the dialect of
// an epoch depends on (seed family, epoch) — so without the ticket a
// reconnecting peer that has rekeyed cannot rejoin at all: the fresh
// acceptor speaks the base family and the returning peer a rekeyed one.
//
// The wire handshake is one round trip, mirroring the rekey handshake's
// forgery defenses:
//
//	resuming side                       acceptor side
//	-------------                       -------------
//	KindResume(ticket) at ticket epoch →
//	                                    bound-check header epoch
//	                                    open ticket (seal tag check)
//	                                    adopt lineage + odometer
//	                                    ← KindResumeAck (masked digest)
//	data flows immediately (the resuming side need not wait for the ack)
//
// The acceptor side is any ordinary session: a listener's accept loop
// does not need to know in advance whether a peer is fresh or resuming —
// a fresh peer's first frame is data, a resuming peer's is KindResume,
// and the Recv path dispatches both.
const (
	// DefaultResumeWindow is how many epochs behind the acceptor's
	// current horizon a resumption ticket's epoch may lie before it is
	// rejected as expired. Without a replay cache it doubles as the
	// replay lifetime of a ticket: within the window a captured ticket
	// could re-attach (and learn nothing beyond what its thief already
	// had — the ticket is sealed), after it the ticket is dead. With
	// Options.Replay set, tickets are single-use and the window only
	// bounds how stale a first presentation may be.
	// Options.ResumeWindow overrides it.
	DefaultResumeWindow = 64

	// resumeStateMagic guards the sealed state encoding ("res1"); it is
	// checked after the seal tag, so a mismatch means a version skew, not
	// a forgery that survived the tag.
	resumeStateMagic = 0x72657331

	// resumeAckMagic marks a resume acknowledgement after unmasking.
	resumeAckMagic = 0x72736d41 // "rsmA"

	// resumeAckLen is the ack payload: magic(4) + epoch(8) + ticket
	// digest(8). The digest binds the ack to the exact ticket resumed.
	resumeAckLen = 20

	// maxResumeRekeys bounds the lineage length a ticket may carry, so a
	// parsed state cannot demand unbounded memory.
	maxResumeRekeys = 256

	// resumeDropLimit bounds how many peer control frames the resuming
	// side discards while its resume ack is outstanding. The acceptor
	// writes at most a construction-time rekey proposal before it
	// processes the resume frame, so any small bound is generous; past
	// it, frames are processed normally (and fail loudly if unreadable).
	resumeDropLimit = 8

	resumeStateFixedLen = 4 + 8 + 8 + 8 + 8 + 4 + 2 // through nRekeys
	resumeRekeyLen      = 8 + 8
)

// TicketSealer is the optional Versioner extension behind session
// migration: sealing resumption state into opaque tickets under a key
// derived from the dialect family's base secret, and verifying/opening
// them again. core.View implements it; Fixed does not, so static
// sessions neither export nor accept tickets.
type TicketSealer interface {
	SealResume(plain []byte) ([]byte, error)
	OpenResume(ticket []byte) ([]byte, error)
}

// Lineage is the optional Versioner extension that exports and replays
// the rekey history a resumption ticket must carry: which master seed
// the family switched to from which epoch onward. core.View implements
// it.
type Lineage interface {
	RekeyLineage() (froms []uint64, seeds []int64)
	ImportRekeys(froms []uint64, seeds []int64) error
}

// resumeState is the plaintext of a resumption ticket: everything a
// fresh Conn needs to continue the session on a new byte stream.
type resumeState struct {
	epoch         uint64   // send epoch at export
	bytesMoved    uint64   // traffic odometer at export
	sinceRekey    uint64   // odometer distance past the last rekey boundary
	lastRekeyFrom uint64   // epoch-clock rekey trigger datum
	cacheWindow   int32    // exporter's resolved dialect window (0 = unbounded), a hint
	froms         []uint64 // rekey lineage boundaries, ascending
	seeds         []int64  // rekey lineage seeds, parallel to froms
}

// encode serializes the state into the fixed big-endian layout the
// ticket seals.
func (st *resumeState) encode() []byte {
	out := make([]byte, resumeStateFixedLen+resumeRekeyLen*len(st.froms))
	binary.BigEndian.PutUint32(out[0:4], resumeStateMagic)
	binary.BigEndian.PutUint64(out[4:12], st.epoch)
	binary.BigEndian.PutUint64(out[12:20], st.bytesMoved)
	binary.BigEndian.PutUint64(out[20:28], st.sinceRekey)
	binary.BigEndian.PutUint64(out[28:36], st.lastRekeyFrom)
	binary.BigEndian.PutUint32(out[36:40], uint32(st.cacheWindow))
	binary.BigEndian.PutUint16(out[40:42], uint16(len(st.froms)))
	for i := range st.froms {
		off := resumeStateFixedLen + resumeRekeyLen*i
		binary.BigEndian.PutUint64(out[off:off+8], st.froms[i])
		binary.BigEndian.PutUint64(out[off+8:off+16], uint64(st.seeds[i]))
	}
	return out
}

// decodeState parses and validates a ticket's state plaintext. Every
// structural invariant is enforced here — exact length, magic, bounded
// and strictly ascending lineage, odometer consistency — so downstream
// code can trust a decoded state.
func decodeState(p []byte) (*resumeState, error) {
	if len(p) < resumeStateFixedLen {
		return nil, fmt.Errorf("session: resumption state of %d bytes, want >= %d", len(p), resumeStateFixedLen)
	}
	if binary.BigEndian.Uint32(p[0:4]) != resumeStateMagic {
		return nil, errors.New("session: resumption state magic mismatch (ticket version skew)")
	}
	st := &resumeState{
		epoch:         binary.BigEndian.Uint64(p[4:12]),
		bytesMoved:    binary.BigEndian.Uint64(p[12:20]),
		sinceRekey:    binary.BigEndian.Uint64(p[20:28]),
		lastRekeyFrom: binary.BigEndian.Uint64(p[28:36]),
		cacheWindow:   int32(binary.BigEndian.Uint32(p[36:40])),
	}
	n := int(binary.BigEndian.Uint16(p[40:42]))
	if n > maxResumeRekeys {
		return nil, fmt.Errorf("session: resumption lineage of %d rekeys exceeds limit %d", n, maxResumeRekeys)
	}
	if len(p) != resumeStateFixedLen+resumeRekeyLen*n {
		return nil, fmt.Errorf("session: resumption state of %d bytes, want %d for %d rekeys",
			len(p), resumeStateFixedLen+resumeRekeyLen*n, n)
	}
	if st.sinceRekey > st.bytesMoved {
		return nil, errors.New("session: resumption odometer inconsistent")
	}
	if st.cacheWindow < 0 {
		return nil, errors.New("session: resumption cache window negative")
	}
	if n > 0 {
		st.froms = make([]uint64, n)
		st.seeds = make([]int64, n)
		last := uint64(0)
		for i := 0; i < n; i++ {
			off := resumeStateFixedLen + resumeRekeyLen*i
			from := binary.BigEndian.Uint64(p[off : off+8])
			if from <= last {
				return nil, fmt.Errorf("session: resumption lineage boundary %d not ascending", from)
			}
			last = from
			st.froms[i] = from
			st.seeds[i] = int64(binary.BigEndian.Uint64(p[off+8 : off+16]))
		}
	}
	return st, nil
}

// compactLineage drops rekey points that cannot matter on a fresh byte
// stream: a resumed session exchanges no frame older than its resume
// epoch, so only the point defining the family at the export epoch
// (the last one at or before it) and any future boundaries (an acked
// rekey the epoch has not reached yet) need to travel. Tickets
// therefore stay O(1) over a session's lifetime however often it
// rekeys, and legitimate exports never approach the parser's
// maxResumeRekeys bound.
func compactLineage(froms []uint64, seeds []int64, epoch uint64) ([]uint64, []int64) {
	active := -1
	for i, f := range froms {
		if f > epoch {
			break
		}
		active = i
	}
	if active <= 0 {
		return froms, seeds // nothing before the active point to drop
	}
	return froms[active:], seeds[active:]
}

// resumeAwait is the resuming side's outstanding handshake: the epoch
// the ticket re-attached at, the digest the acceptor's ack must echo,
// and when the resume frame went out (the datum the handshake latency
// histogram measures from).
type resumeAwait struct {
	epoch uint64
	check [8]byte
	at    time.Time
}

// ticketDigest derives the 8-byte digest a resume ack echoes, binding
// the ack to one exact ticket without the session layer knowing the
// ticket's sealed layout.
func ticketDigest(ticket []byte) (d [8]byte) {
	sum := sha256.Sum256(ticket)
	copy(d[:], sum[:8])
	return d
}

// Export captures the session's resumable state as an opaque ticket
// sealed under the dialect family's base secret. The ticket re-attaches
// the session — including its full rekey lineage and traffic odometer —
// to any peer endpoint built from the same (spec, seed), via ResumeConn
// on a fresh byte stream. Export may be called at any time and as often
// as wanted; later tickets supersede earlier ones, and a ticket expires
// once the fleet's epoch moves more than the acceptor's resume window
// past it.
//
// Exporting requires a Versioner that can seal tickets and report its
// rekey lineage (core's rotation views can; static Fixed versioners
// cannot).
func (c *Conn) Export() ([]byte, error) {
	sealer, okSeal := c.ec.versions.(TicketSealer)
	lin, okLin := c.ec.versions.(Lineage)
	if !okSeal || !okLin {
		return nil, errors.New("session: versioner does not support resumption tickets")
	}
	var st resumeState
	c.mu.Lock()
	st.epoch = c.t.Epoch()
	st.bytesMoved = c.bytesMoved.Load()
	st.sinceRekey = st.bytesMoved - c.rekeyBase
	st.lastRekeyFrom = c.lastRekeyFrom
	st.cacheWindow = int32(c.ec.window)
	c.mu.Unlock()
	// Lineage is read after the epoch: a rekey completing concurrently
	// may then appear as a boundary past the captured epoch, which
	// resumes correctly (the boundary applies when the epoch reaches it),
	// whereas the reverse order could capture a post-boundary epoch
	// without the family switch that defines it.
	st.froms, st.seeds = lin.RekeyLineage()
	st.froms, st.seeds = compactLineage(st.froms, st.seeds, st.epoch)
	if len(st.froms) > maxResumeRekeys {
		// Unreachable for lineages Rekey can build (compaction keeps the
		// active point plus in-flight future boundaries), kept as the
		// export-side mirror of the parser's bound.
		return nil, fmt.Errorf("session: rekey lineage of %d points exceeds the resumable limit %d",
			len(st.froms), maxResumeRekeys)
	}
	ticket, err := sealer.SealResume(st.encode())
	if err != nil {
		return nil, err
	}
	if c.resumeStats != nil {
		c.resumeStats.TicketsIssued.Add(1)
	}
	return ticket, nil
}

// ResumeConn reconstructs an exported session on a fresh byte stream:
// it opens the ticket locally, replays the rekey lineage into the
// (pristine) Versioner, restores the epoch and rekey-trigger odometers,
// and sends the in-band KindResume frame that tells the acceptor to do
// the same. The session is usable immediately — messages may be sent
// without waiting for the acceptor's ack, because the stream is ordered:
// the acceptor adopts the ticket before it reads anything sent after it.
//
// With a Schedule, the session then advances from the ticket's epoch to
// the current scheduled epoch, exactly as a session that had stayed
// connected would have. The exporter's cache-window hint applies when
// opts.CacheWindow is unset.
func ResumeConn(rw io.ReadWriter, versions Versioner, opts Options, ticket []byte) (*Conn, error) {
	if err := validateShape(opts); err != nil {
		return nil, err
	}
	sealer, okSeal := versions.(TicketSealer)
	lin, okLin := versions.(Lineage)
	if !okSeal || !okLin {
		return nil, errors.New("session: versioner does not support resumption tickets")
	}
	plain, err := sealer.OpenResume(ticket)
	if err != nil {
		if s := opts.ResumeStats; s != nil {
			s.RejectedForged.Add(1)
		}
		return nil, fmt.Errorf("session: resume: %w", err)
	}
	st, err := decodeState(plain)
	if err != nil {
		if s := opts.ResumeStats; s != nil {
			s.RejectedForged.Add(1)
		}
		return nil, err
	}
	window := opts.ResumeWindow
	if window == 0 {
		window = DefaultResumeWindow
	}
	if opts.Schedule != nil {
		// Fail fast on a ticket the acceptor is going to reject anyway.
		if cur := opts.Schedule.Epoch(); st.epoch+window < cur {
			if s := opts.ResumeStats; s != nil {
				s.RejectedExpired.Add(1)
			}
			return nil, fmt.Errorf("session: resumption ticket expired: epoch %d is %d behind current %d (window %d)",
				st.epoch, cur-st.epoch, cur, window)
		}
	}
	if opts.CacheWindow == 0 && st.cacheWindow != int32(DefaultCacheWindow) {
		// Adopt the exporter's window when the resumer did not pick one.
		if st.cacheWindow == 0 {
			opts.CacheWindow = -1 // exporter ran unbounded
		} else {
			opts.CacheWindow = int(st.cacheWindow)
		}
	}
	c := newConn(rw, versions, opts)
	if err := lin.ImportRekeys(st.froms, st.seeds); err != nil {
		c.Release()
		return nil, fmt.Errorf("session: resume: %w", err)
	}
	if err := c.ec.Advance(st.epoch); err != nil {
		c.Release()
		return nil, err
	}
	c.bytesMoved.Store(st.bytesMoved)
	c.mu.Lock()
	c.lastRekeyFrom = st.lastRekeyFrom
	c.rekeyBase = st.bytesMoved - st.sinceRekey
	c.resumed = true
	c.await = &resumeAwait{epoch: st.epoch, check: ticketDigest(ticket), at: time.Now()}
	c.mu.Unlock()
	// The resume frame must be the first thing on the wire: everything
	// sent after it — data, automatic rekey proposals from the schedule
	// sync below — is read by an acceptor that has already adopted the
	// ticket.
	if err := c.t.sendFrameAt(frame.KindResume, st.epoch, ticket); err != nil {
		c.Release()
		return nil, err
	}
	if err := c.syncSchedule(); err != nil {
		c.Release()
		return nil, err
	}
	// Shaping survives migration: the profile is Options-carried
	// configuration, and the per-epoch shape re-derives from the lineage
	// just imported, so a resumed session keeps the shape the exported
	// one had. The cover scheduler starts only now that the session is
	// viable.
	c.startCover(opts)
	c.ec.Emit(trace.KindSessionOpen, st.epoch, "resume")
	return c, nil
}

// handleResume is the acceptor side of the migration handshake,
// dispatched from the Recv control path: verify the ticket, adopt its
// lineage and odometers, and ack. Rejections mirror the rekey
// handshake's defenses — the header epoch is bound-checked before the
// ticket is even opened, the seal tag rejects forgery, and the sealed
// epoch must match the header (the header is outside the seal). All
// outcomes are counted in the session's ResumeStats.
func (c *Conn) handleResume(hdrEpoch uint64, ticket []byte) error {
	sealer, okSeal := c.ec.versions.(TicketSealer)
	lin, okLin := c.ec.versions.(Lineage)
	if !okSeal || !okLin {
		if s := c.resumeStats; s != nil {
			s.RejectedState.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "state")
		return errors.New("session: peer requested resume but versioner cannot open tickets")
	}
	cur := c.horizon()
	if hdrEpoch > cur+c.MaxEpochLead {
		if s := c.resumeStats; s != nil {
			s.RejectedExpired.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "expired")
		return fmt.Errorf("session: resume at epoch %d implausibly far ahead of current %d (max lead %d)",
			hdrEpoch, cur, c.MaxEpochLead)
	}
	if hdrEpoch+c.resumeWindow < cur {
		if s := c.resumeStats; s != nil {
			s.RejectedExpired.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "expired")
		return fmt.Errorf("session: resumption ticket expired: epoch %d is %d behind current %d (window %d)",
			hdrEpoch, cur-hdrEpoch, cur, c.resumeWindow)
	}
	// A session resumes at most once, and only before it has carried
	// traffic or rekeyed: resumption replaces a fresh session's state, it
	// does not merge into an established one.
	c.mu.Lock()
	established := c.resumed
	c.mu.Unlock()
	if froms, _ := lin.RekeyLineage(); len(froms) > 0 || c.bytesMoved.Load() > 0 {
		established = true
	}
	if established {
		if s := c.resumeStats; s != nil {
			s.RejectedState.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "state")
		return errors.New("session: resume on an established session")
	}
	plain, err := sealer.OpenResume(ticket)
	if err != nil {
		if s := c.resumeStats; s != nil {
			s.RejectedForged.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "forged")
		return fmt.Errorf("session: resume: %w", err)
	}
	st, err := decodeState(plain)
	if err != nil {
		if s := c.resumeStats; s != nil {
			s.RejectedForged.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "forged")
		return err
	}
	if st.epoch != hdrEpoch {
		// The header epoch is outside the seal; a mismatch means someone
		// re-framed a ticket to dodge the expiry bounds.
		if s := c.resumeStats; s != nil {
			s.RejectedForged.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "forged")
		return fmt.Errorf("session: resume header epoch %d contradicts sealed epoch %d", hdrEpoch, st.epoch)
	}
	// Replay gate, after authenticity (so garbage cannot pollute the
	// cache) and before any state is adopted. Witness marks the ticket
	// seen even though nothing was admitted yet: a presentation IS the
	// single use, whether or not the rest of the handshake succeeds.
	if c.replay != nil && c.replay.Witness(ticket) {
		if s := c.resumeStats; s != nil {
			s.RejectedReplayed.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "replayed")
		return errors.New("session: resumption ticket already presented (tickets are single-use)")
	}
	if err := lin.ImportRekeys(st.froms, st.seeds); err != nil {
		if s := c.resumeStats; s != nil {
			s.RejectedState.Add(1)
		}
		c.ec.Emit(trace.KindResumeReject, hdrEpoch, "state")
		return fmt.Errorf("session: resume: %w", err)
	}
	if len(st.froms) > 0 {
		// Dialects cached before adoption at post-boundary epochs were
		// compiled under the base family; drop them before the fresh
		// compile below caches the lineage's view of the same epochs.
		c.ec.DropFrom(st.froms[0])
	}
	// Compile the resumed epoch's dialect before acking, so the ack
	// guarantees readiness — the same contract as the rekey handshake.
	if _, err := c.ec.Dialect(st.epoch); err != nil {
		return err
	}
	// The odometer is stored before the rekey base derived from it:
	// maybeVolumeRekey relies on the base never exceeding a bytesMoved
	// load taken under c.mu, so a concurrent sender must not observe the
	// adopted base against the pre-adoption (smaller) odometer.
	c.bytesMoved.Store(st.bytesMoved)
	c.mu.Lock()
	// A rekey proposal minted before the resume arrived (typically the
	// automatic one at construction) is dead: it is masked under the
	// pre-resume family and the resuming peer discards it unread.
	c.pending, c.abandoned = nil, nil
	c.lastRekeyFrom = st.lastRekeyFrom
	c.rekeyBase = st.bytesMoved - st.sinceRekey
	c.resumed = true
	c.mu.Unlock()
	c.ec.Raise(st.epoch)
	if err := c.sendResumeAck(st.epoch, ticket); err != nil {
		return err
	}
	if s := c.resumeStats; s != nil {
		s.Accepts.Add(1)
	}
	c.ec.Emit(trace.KindResumeAccept, st.epoch, "")
	// The ticket just presented is spent (single-use under a replay
	// cache): if re-issue is on, immediately re-arm the peer with a
	// fresh ticket for its next migration. Stream ordering puts this
	// after the ack.
	return c.maybeReissue()
}

// sendResumeAck writes the acceptance frame: a masked (magic, epoch,
// ticket digest) triple under the resumed family's control pad — so
// receiving a readable ack proves the acceptor adopted the lineage.
func (c *Conn) sendResumeAck(epoch uint64, ticket []byte) error {
	var p [resumeAckLen]byte
	binary.BigEndian.PutUint32(p[:4], resumeAckMagic)
	binary.BigEndian.PutUint64(p[4:12], epoch)
	d := ticketDigest(ticket)
	copy(p[12:20], d[:])
	c.ec.MaskControl(epoch, p[:])
	return c.t.sendFrameAt(frame.KindResumeAck, epoch, p[:])
}

// handleResumeAck completes the resuming side's handshake. Acks that
// match no outstanding resume (duplicates, stale deliveries) are
// ignored; an unreadable ack is an error — by the time an ack can
// arrive, both sides share the lineage that masks it.
func (c *Conn) handleResumeAck(hdrEpoch uint64, payload []byte) error {
	if len(payload) != resumeAckLen {
		return fmt.Errorf("session: resume ack of %d bytes, want %d", len(payload), resumeAckLen)
	}
	c.ec.MaskControl(hdrEpoch, payload)
	if binary.BigEndian.Uint32(payload[:4]) != resumeAckMagic {
		return errors.New("session: resume ack failed unmasking (forged or wrong dialect family)")
	}
	epoch := binary.BigEndian.Uint64(payload[4:12])
	var check [8]byte
	copy(check[:], payload[12:20])
	var sentAt time.Time
	c.mu.Lock()
	if a := c.await; a != nil && a.epoch == epoch && a.check == check {
		sentAt = a.at
		c.await = nil
		c.resumeDrops = 0
	}
	c.mu.Unlock()
	if c.ec.lat != nil && !sentAt.IsZero() {
		c.ec.lat.ResumeRTT.ObserveDuration(time.Since(sentAt))
	}
	return nil
}

// dropPreResumeControl reports whether an incoming rekey control frame
// should be silently discarded because this side's resume ack is still
// outstanding (see handleControl). Past resumeDropLimit the frame flows
// to normal processing, which surfaces a loud error if it is genuinely
// unreadable.
func (c *Conn) dropPreResumeControl() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.await == nil || c.resumeDrops >= resumeDropLimit {
		return false
	}
	c.resumeDrops++
	return true
}

// maybeReissue pushes a freshly exported resumption ticket to the peer
// when Options.ReissueTickets is on — called after a committed rekey
// (either role) and after accepting a resume, the two events that spend
// or invalidate whatever ticket the peer held. No-op when re-issue is
// off; a configuration that enables re-issue on a Versioner that cannot
// export tickets fails loudly here.
func (c *Conn) maybeReissue() error {
	if !c.reissue {
		return nil
	}
	t, err := c.Export()
	if err != nil {
		return fmt.Errorf("session: ticket re-issue: %w", err)
	}
	return c.t.sendFrameAt(frame.KindTicket, c.t.Epoch(), t)
}

// handleTicket stores a re-issued resumption ticket the peer pushed
// in-band. The payload is verified before it is kept — opened under
// this side's own dialect family and structurally decoded — so a
// tampered or misdirected frame is a loud error (assigned control kinds
// reject garbage, they never silently eat it), and StoredTicket only
// ever returns tickets that would verify on presentation.
func (c *Conn) handleTicket(payload []byte) error {
	sealer, ok := c.ec.versions.(TicketSealer)
	if !ok {
		return errors.New("session: peer pushed a ticket but versioner cannot open tickets")
	}
	plain, err := sealer.OpenResume(payload)
	if err != nil {
		return fmt.Errorf("session: re-issued ticket: %w", err)
	}
	if _, err := decodeState(plain); err != nil {
		return fmt.Errorf("session: re-issued ticket: %w", err)
	}
	c.mu.Lock()
	c.peerTicket = append(c.peerTicket[:0], payload...)
	c.mu.Unlock()
	return nil
}

// StoredTicket returns a copy of the most recent verified ticket the
// peer re-issued in-band (see Options.ReissueTickets), or nil if none
// arrived yet. After a rekey, this — not the ticket exported before the
// rekey — is what re-attaches the session on its next migration.
func (c *Conn) StoredTicket() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.peerTicket) == 0 {
		return nil
	}
	return append([]byte(nil), c.peerTicket...)
}

// TicketOpener is the narrow slice of TicketSealer a routing frontend
// needs: verify and open a sealed ticket without minting a session.
// core.View implements it.
type TicketOpener interface {
	OpenResume(ticket []byte) ([]byte, error)
}

// TicketInfo is the routing-relevant summary of a verified resumption
// ticket.
type TicketInfo struct {
	// Epoch is the epoch the session exported the ticket at.
	Epoch uint64
	// Rekeyed reports whether the ticket carries a rekey lineage.
	Rekeyed bool
	// Family is the master seed of the dialect family the session
	// speaks from its last rekey boundary onward — the unit of routing
	// affinity. Zero (and meaningless) when Rekeyed is false: an
	// un-rekeyed session speaks the base family the opener itself was
	// built from.
	Family int64
}

// InspectTicket verifies a ticket with o and returns its routing
// summary without adopting any of its state — how a gateway decides
// which backend owns the session a KindResume frame re-attaches.
func InspectTicket(o TicketOpener, ticket []byte) (TicketInfo, error) {
	plain, err := o.OpenResume(ticket)
	if err != nil {
		return TicketInfo{}, err
	}
	st, err := decodeState(plain)
	if err != nil {
		return TicketInfo{}, err
	}
	info := TicketInfo{Epoch: st.epoch}
	if n := len(st.seeds); n > 0 {
		info.Rekeyed = true
		info.Family = st.seeds[n-1]
	}
	return info, nil
}
