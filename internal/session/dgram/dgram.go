// Package dgram is the packet-oriented session layer: obfuscated
// message sessions over lossy, reordering datagram transports (UDP,
// in-memory packet pairs) where internal/session assumes an ordered
// byte stream.
//
// Every datagram is self-contained. A normal-mode packet is one epoch
// frame — [4-byte kind|length][8-byte epoch][payload] — so the receiver
// decodes each packet independently with the dialect its header names.
// There is no epoch-follow rule and no reassembly: instead of following
// the peer's epochs, the receiver accepts any packet whose epoch lies
// within a window W of its receive horizon (the highest epoch it has
// successfully decoded, floored by its own schedule), tolerating up to
// W epochs of reordering and loss skew in either direction. Packets
// outside the window are dropped and counted, never fatal: on a
// datagram link a bad packet is noise, not a broken session.
//
// The control plane is idempotent because any packet can be lost:
// rekeys are proposed as a redundant burst of identical control packets
// and applied exactly once (duplicates are counted and discarded);
// there is no ack. Cover packets are chaff every receiver discards.
//
// Zero-overhead mode (see zerooverhead.go) removes even the 12-byte
// header from data packets: the wire packet is exactly the obfuscated
// payload, with only a structural prefix masked, and the receiver
// trial-decodes against the candidate epochs of its window.
package dgram

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"protoobf/internal/frame"
	"protoobf/internal/graph"
	"protoobf/internal/lru"
	"protoobf/internal/metrics"
	"protoobf/internal/msgtree"
	"protoobf/internal/session"
	"protoobf/internal/session/sched"
	"protoobf/internal/trace"
	"protoobf/internal/wire"
)

// PacketPadder is the Versioner extension zero-overhead mode requires:
// a deterministic per-(family, epoch) pad both peers derive from their
// shared secret, XORed over packet bytes. core.View implements it under
// a domain string separate from the stream layer's control pad.
type PacketPadder interface {
	PacketPad(epoch uint64, n int) []byte
}

// BatchWriter is the optional transport extension behind SendBatch:
// one call delivers many packets, amortizing per-packet transport
// overhead. The in-memory packet pair implements it; transports
// without it fall back to one Write per packet.
type BatchWriter interface {
	WritePacketBatch(pkts [][]byte) error
}

// BatchReader is the optional transport extension behind RecvBatch: it
// blocks for the first packet, then drains whatever else is queued, up
// to len(bufs) packets, writing packet i into bufs[i] and its length
// into sizes[i]. Transports without it deliver one packet per RecvBatch.
type BatchReader interface {
	ReadPacketBatch(bufs [][]byte, sizes []int) (int, error)
}

// DefaultEpochWindow is the default decode window W: packets up to W
// epochs behind or ahead of the receive horizon decode; anything
// further is dropped and counted. Cooperating peers drift by at most
// the reorder depth of the link plus clock skew, so a small window is
// generous — and in zero-overhead mode each extra epoch costs the
// receiver one more trial decode on undecodable packets.
const DefaultEpochWindow = 4

// DefaultMaxPacket bounds one datagram. It comfortably covers an
// Ethernet-ish MTU with obfuscation growth; transports with jumbo
// frames (or the in-memory pair) can raise it up to frame.MaxFrame.
const DefaultMaxPacket = 2048

// DefaultRekeyRedundancy is how many identical copies of a rekey
// control packet a burst sends. The handshake has no ack, so
// redundancy is what rides out loss: at 5% independent loss, three
// copies fail together about once per 8000 rekeys.
const DefaultRekeyRedundancy = 3

// Options configures a datagram session. The zero value gives a
// manually rotated normal-mode session with default bounds.
type Options struct {
	// Schedule derives the send epoch from coarse wall-clock time,
	// exactly as in the stream layer: the horizon adopts the schedule
	// epoch on every Send/Recv/NewMessage. Nil means epochs move only
	// via Advance or by decoding a peer packet from a higher epoch.
	Schedule *sched.Scheduler

	// Window is the epoch decode window W (0 = DefaultEpochWindow).
	Window uint64

	// ZeroOverhead strips the 12-byte header from data packets: the
	// wire packet is the obfuscated payload with a masked structural
	// prefix, 0 added bytes. Requires a Versioner implementing
	// PacketPadder. Control packets keep full treatment plus random
	// padding. Both peers must agree on the mode.
	ZeroOverhead bool

	// MaxPacket bounds one datagram in bytes (0 = DefaultMaxPacket,
	// capped at frame.MaxFrame). Messages that serialize past the
	// bound are rejected at Send — the layer never fragments.
	MaxPacket int

	// CacheWindow bounds the per-connection dialect cache exactly as
	// in the stream layer: 0 means session.DefaultCacheWindow,
	// negative means unbounded.
	CacheWindow int

	// RekeyRedundancy is how many copies of each rekey control packet
	// Rekey sends (0 = DefaultRekeyRedundancy).
	RekeyRedundancy int

	// Stats, when non-nil, receives the session's packet activity —
	// how the endpoint layer aggregates per-session datagram events
	// into one observable counter block.
	Stats *metrics.DgramCounters

	// Latency, when non-nil, receives the session's epoch-boundary
	// crossings, exactly as in the stream layer.
	Latency *metrics.LatencyCounters

	// Trace, when non-nil, receives the session's lifecycle events
	// (open/close, epoch crossings, packet rejects, cover packets),
	// labeled TraceID. A nil ring disables tracing at nil-check cost.
	Trace   *trace.Ring
	TraceID uint64
}

// Conn is an obfuscated message session over a packet transport: Send
// writes one datagram per message, Recv decodes each incoming datagram
// independently by its epoch (within the window), and control packets
// (idempotent rekey bursts, cover chaff) ride the same reserved frame
// kinds as the stream layer.
//
// The transport contract is datagram semantics over io.ReadWriter: one
// Write sends one packet, one Read returns one whole packet (a
// connected net.UDPConn and the in-memory packet pair both satisfy
// it). Conn is safe for concurrent use.
type Conn struct {
	rw io.ReadWriter

	window     uint64
	zo         bool
	padder     PacketPadder // zero-overhead pad source, when versions has one
	maxPacket  int
	redundancy int
	stats      *metrics.DgramCounters

	// horizon is the receive/send anchor: the highest epoch decoded or
	// scheduled so far. Monotonic, lock-free reads.
	horizon atomic.Uint64

	ec session.EpochCore // epoch state shared with the stream transport; raises horizon

	mu   sync.Mutex                 // guards pads and lastRekey
	pads *lru.Cache[uint64, []byte] // zero-overhead packet pads per epoch
	// lastRekey records the highest rekey boundary applied (by either
	// side), the idempotence anchor: a control packet proposing a
	// boundary at or below it is a duplicate, discarded and counted.
	lastRekey *rekeyPoint

	smu  sync.Mutex // serializes Send's buffer reuse
	wbuf []byte

	pmu     sync.Mutex // serializes Recv's buffer reuse and trial scratch
	rbuf    []byte
	scratch []byte
	// batch receive scratch, allocated on first RecvBatch over a
	// BatchReader transport (guarded by pmu).
	bbufs  [][]byte
	bsizes []int
}

type rekeyPoint struct {
	from uint64
	seed int64
}

// NewConn opens a datagram session over rw. With a Schedule the
// horizon starts at the schedule's current epoch; otherwise at 0. The
// starting dialect is compiled eagerly so configuration errors surface
// here, not on the first packet.
func NewConn(rw io.ReadWriter, versions session.Versioner, opts Options) (*Conn, error) {
	window := opts.Window
	if window == 0 {
		window = DefaultEpochWindow
	}
	maxPacket := opts.MaxPacket
	if maxPacket == 0 {
		maxPacket = DefaultMaxPacket
	}
	if maxPacket < frame.EpochHeaderLen+1 || maxPacket > frame.MaxFrame {
		return nil, fmt.Errorf("dgram: max packet %d outside [%d, %d]", maxPacket, frame.EpochHeaderLen+1, frame.MaxFrame)
	}
	padder, _ := versions.(PacketPadder)
	if opts.ZeroOverhead && padder == nil {
		return nil, errors.New("dgram: zero-overhead mode needs a Versioner with PacketPad (a rotation view; static sessions cannot)")
	}
	redundancy := opts.RekeyRedundancy
	if redundancy <= 0 {
		redundancy = DefaultRekeyRedundancy
	}
	stats := opts.Stats
	if stats == nil {
		stats = &metrics.DgramCounters{}
	}
	c := &Conn{
		rw:         rw,
		window:     window,
		zo:         opts.ZeroOverhead,
		padder:     padder,
		maxPacket:  maxPacket,
		redundancy: redundancy,
		stats:      stats,
		wbuf:       frame.GetBuffer(),
		rbuf:       make([]byte, maxPacket),
	}
	// The dialect cache must hold the whole decode window around the
	// horizon or in-window packets would thrash it.
	c.ec.Init("dgram", versions, &c.horizon, int(2*window+1), session.Options{
		Schedule:    opts.Schedule,
		CacheWindow: opts.CacheWindow,
		Latency:     opts.Latency,
		Trace:       opts.Trace,
		TraceID:     opts.TraceID,
	})
	c.ec.OnDrop = c.dropPadsFrom
	c.pads = lru.New[uint64, []byte](c.ec.CacheWindow(), nil)
	start := uint64(0)
	if opts.Schedule != nil {
		start = opts.Schedule.Epoch()
	}
	if err := c.ec.Advance(start); err != nil {
		return nil, err
	}
	c.ec.Emit(trace.KindSessionOpen, start, "")
	return c, nil
}

// Pair connects two in-memory datagram peers over a lossless packet
// pair, each speaking the dialect family of its Versioner — the
// datagram analogue of session.Pair.
func Pair(a, b session.Versioner, aopts, bopts Options) (*Conn, *Conn, error) {
	pa, pb := NewPair()
	x, err := NewConn(pa, a, aopts)
	if err != nil {
		return nil, nil, err
	}
	y, err := NewConn(pb, b, bopts)
	if err != nil {
		return nil, nil, err
	}
	return x, y, nil
}

// Horizon returns the session's current epoch anchor (lock-free).
func (c *Conn) Horizon() uint64 { return c.horizon.Load() }

// Stats snapshots the session's packet counters.
func (c *Conn) Stats() metrics.DgramStats { return c.stats.Snapshot() }

// ZeroOverhead reports whether the session runs in zero-overhead mode.
func (c *Conn) ZeroOverhead() bool { return c.zo }

// Release returns the session's pooled buffers to the shared pool. The
// session must not be used afterwards.
func (c *Conn) Release() {
	c.smu.Lock()
	frame.PutBuffer(c.wbuf)
	c.wbuf = nil
	c.smu.Unlock()
}

// Close closes the underlying transport (when it implements io.Closer)
// and releases the session's buffers.
func (c *Conn) Close() error {
	c.ec.Emit(trace.KindSessionClose, c.Horizon(), "")
	var err error
	if cl, ok := c.rw.(io.Closer); ok {
		err = cl.Close()
	}
	c.Release()
	return err
}

// syncSchedule adopts the schedule's current epoch as the horizon.
// Unlike the stream layer there is no pending-rekey gate: datagram
// rekeys apply immediately (no ack to wait for).
func (c *Conn) syncSchedule() error { return c.ec.AdoptSchedule(nil) }

// NewMessage returns an empty message bound to the current horizon's
// dialect. Like the stream layer, the binding survives a concurrent
// epoch advance: Send tags the packet with the epoch the message was
// composed for.
func (c *Conn) NewMessage() (*msgtree.Message, error) {
	if err := c.syncSchedule(); err != nil {
		return nil, err
	}
	return c.ec.NewMessage()
}

// Advance raises the horizon to epoch, compiling its dialect first.
func (c *Conn) Advance(epoch uint64) error { return c.ec.Advance(epoch) }

// Send serializes m into one datagram under the epoch whose dialect
// composed it and writes it. Steady-state sends reuse the connection's
// buffer and do not allocate. A message larger than MaxPacket (after
// obfuscation and framing) is rejected — the layer never fragments.
func (c *Conn) Send(m *msgtree.Message) error {
	if err := c.syncSchedule(); err != nil {
		return err
	}
	epoch, err := c.ec.SendEpoch(m)
	if err != nil {
		return err
	}
	c.smu.Lock()
	defer c.smu.Unlock()
	pkt, err := c.encodeData(m, epoch)
	if err != nil {
		return err
	}
	if _, err := c.rw.Write(pkt); err != nil {
		return err
	}
	c.countDataSent(1, uint64(len(pkt)))
	return nil
}

// countDataSent tallies n data packets totalling wireBytes on the
// wire. The payload-byte tally follows from the mode's fixed per-packet
// overhead: the whole packet in zero-overhead mode, wire minus the
// header otherwise.
func (c *Conn) countDataSent(n, wireBytes uint64) {
	c.stats.DataSent.Add(n)
	c.stats.DataWireBytes.Add(wireBytes)
	if c.zo {
		c.stats.ZeroOverheadSent.Add(n)
		c.stats.DataPayloadBytes.Add(wireBytes)
	} else {
		c.stats.DataPayloadBytes.Add(wireBytes - n*frame.EpochHeaderLen)
	}
}

// SendBatch serializes and sends many messages under one lock
// acquisition, staging all packets and delivering them in one
// WritePacketBatch call when the transport supports it. The per-batch
// dialect and pad lookups are amortized: consecutive messages of one
// epoch (the common case) resolve the epoch's state once.
func (c *Conn) SendBatch(ms []*msgtree.Message) error {
	if len(ms) == 0 {
		return nil
	}
	if err := c.syncSchedule(); err != nil {
		return err
	}
	epochs := make([]uint64, len(ms))
	if err := c.ec.SendEpochs(ms, epochs); err != nil {
		return err
	}
	c.smu.Lock()
	defer c.smu.Unlock()
	bw, batched := c.rw.(BatchWriter)
	var pkts [][]byte
	var arena []byte
	if batched {
		pkts = make([][]byte, 0, len(ms))
		arena = frame.GetBuffer()
		defer func() { frame.PutBuffer(arena) }()
	}
	sent, wireBytes := uint64(0), uint64(0)
	lens := make([]int, 0, len(ms))
	for i, m := range ms {
		pkt, err := c.encodeData(m, epochs[i])
		if err != nil {
			return err
		}
		if batched {
			// Stage a copy in the arena; slice views are taken after the
			// arena stops growing (growth would invalidate them).
			arena = append(arena, pkt...)
			lens = append(lens, len(pkt))
		} else {
			if _, err := c.rw.Write(pkt); err != nil {
				return err
			}
			sent++
			wireBytes += uint64(len(pkt))
		}
	}
	if batched {
		// Slice views are cut only now, against the final backing array.
		off := 0
		for _, n := range lens {
			pkts = append(pkts, arena[off:off+n])
			off += n
			wireBytes += uint64(n)
		}
		if err := bw.WritePacketBatch(pkts); err != nil {
			return err
		}
		sent = uint64(len(pkts))
	}
	c.countDataSent(sent, wireBytes)
	c.stats.SendBatchSizes.Observe(sent)
	return nil
}

// encodeData builds one data packet for m at epoch into the send
// buffer. Callers hold smu; the returned slice is valid until the next
// encode.
func (c *Conn) encodeData(m *msgtree.Message, epoch uint64) ([]byte, error) {
	if c.zo {
		return c.encodeDataZO(m, epoch)
	}
	if cap(c.wbuf) < frame.EpochHeaderLen {
		c.wbuf = make([]byte, 0, 512)
	}
	out, err := wire.SerializeAppend(m, c.wbuf[:frame.EpochHeaderLen])
	if err != nil {
		return nil, err
	}
	c.wbuf = out
	if len(out) > c.maxPacket {
		return nil, fmt.Errorf("dgram: message of %d bytes exceeds max packet %d", len(out), c.maxPacket)
	}
	if err := frame.EncodeHeader(out[:frame.EpochHeaderLen], frame.KindData, epoch, len(out)-frame.EpochHeaderLen); err != nil {
		return nil, err
	}
	return out, nil
}

// Rekey switches the dialect family to seed from the next epoch onward
// and tells the peer with a redundant burst of identical control
// packets. Unlike the stream layer's handshake there is no ack: the
// switch applies locally at once, the burst rides out loss, and the
// receiver applies the boundary idempotently however many copies
// arrive. Packets of pre-boundary epochs still decode on both sides
// (the family is epoch-ranged), so data in flight across the boundary
// survives. The caller is the single initiator by convention: datagram
// sessions resolve no proposal races, so only one side should rekey.
// The local switch traces a rekey-propose; with no ack there is no
// round trip to time, so a datagram rekey feeds no RekeyRTT.
//
// Rekeying mutates the session's Versioner; like the stream layer, a
// rekeying Conn must own its view exclusively (Endpoint sessions each
// take their own View).
func (c *Conn) Rekey(seed int64) (uint64, error) {
	if !c.ec.CanRekey() {
		return 0, errors.New("dgram: versioner does not support rekeying")
	}
	if err := c.syncSchedule(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	from := c.horizon.Load() + 1
	if c.lastRekey != nil && from <= c.lastRekey.from {
		from = c.lastRekey.from + 1
	}
	c.mu.Unlock()
	if err := c.ec.ApplyRekey(from, seed); err != nil {
		return 0, err // rolled back; the peer never heard of it
	}
	c.mu.Lock()
	c.lastRekey = &rekeyPoint{from: from, seed: seed}
	c.mu.Unlock()
	c.stats.RekeysApplied.Add(1)
	c.ec.Emit(trace.KindRekeyPropose, from, "")
	// The burst is sent after the local switch: a copy the peer decodes
	// applies the same boundary, and our post-boundary data packets are
	// already valid. Copies after the first failing to write is not
	// fatal — redundancy is best-effort by design.
	var firstErr error
	for i := 0; i < c.redundancy; i++ {
		if err := c.sendRekeyPacket(from, seed); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.stats.ControlSent.Add(1)
	}
	c.ec.Raise(from)
	return from, firstErr
}

// sendRekeyPacket writes one rekey control packet: the shared
// magic/epoch/seed payload (masked with the control pad of the
// pre-boundary epoch, exactly as on streams) plus random padding so
// the rekey burst does not telegraph itself by a fixed packet size.
func (c *Conn) sendRekeyPacket(from uint64, seed int64) error {
	hdrEpoch := from - 1
	var inner [frame.ControlLen]byte
	frame.EncodeControl(inner[:], from, seed)
	c.ec.MaskControl(hdrEpoch, inner[:])
	return c.sendControlPacket(frame.KindRekeyPropose, hdrEpoch, inner[:])
}

// SendCover writes one cover (decoy) packet: random chaff of a random
// plausible size under the current horizon's epoch. Every receiver
// discards (and counts) covers, so covers are always safe to emit.
func (c *Conn) SendCover() error {
	if err := c.syncSchedule(); err != nil {
		return err
	}
	if err := c.sendControlPacket(frame.KindCover, c.horizon.Load(), c.ec.Chaff(16, 144)); err != nil {
		return err
	}
	c.stats.ControlSent.Add(1)
	c.stats.CoverSent.Add(1)
	c.ec.Emit(trace.KindCoverBurst, c.horizon.Load(), "")
	return nil
}

// sendControlPacket builds and writes one control packet: plaintext
// header plus payload plus random padding in normal mode, or the
// fully packet-pad-masked equivalent in zero-overhead mode. The
// padding varies the packet size; the header's length word names the
// true payload length, so receivers ignore the tail.
func (c *Conn) sendControlPacket(kind byte, hdrEpoch uint64, payload []byte) error {
	c.smu.Lock()
	defer c.smu.Unlock()
	pkt := c.wbuf[:0]
	if cap(pkt) < frame.EpochHeaderLen {
		pkt = make([]byte, 0, 512)
	}
	pkt = pkt[:frame.EpochHeaderLen]
	if err := frame.EncodeHeader(pkt, kind, hdrEpoch, len(payload)); err != nil {
		return err
	}
	pkt = append(pkt, payload...)
	pad := c.ec.Chaff(0, 64)
	if len(pkt)+len(pad) <= c.maxPacket {
		pkt = append(pkt, pad...)
	}
	c.wbuf = pkt
	if len(pkt) > c.maxPacket {
		return fmt.Errorf("dgram: control packet of %d bytes exceeds max packet %d", len(pkt), c.maxPacket)
	}
	if c.zo {
		c.maskPacketPrefix(hdrEpoch, pkt, frame.EpochHeaderLen+len(payload))
	}
	_, err := c.rw.Write(pkt)
	return err
}

// Recv reads datagrams until one decodes to a data message. Control
// packets are handled along the way; packets that fail any check —
// outside the epoch window, malformed, undecodable — are counted and
// dropped, and the loop keeps reading: on a lossy link a bad packet
// must not kill the session. Only transport errors surface.
func (c *Conn) Recv() (*msgtree.Message, error) {
	for {
		if err := c.syncSchedule(); err != nil {
			return nil, err
		}
		c.pmu.Lock()
		n, err := c.rw.Read(c.rbuf)
		if err != nil {
			c.pmu.Unlock()
			return nil, err
		}
		m, _ := c.decodeLocked(c.rbuf[:n], nil)
		c.pmu.Unlock()
		if m != nil {
			return m, nil
		}
	}
}

// RecvBatch reads up to max packets in one transport call (blocking
// for the first) and decodes them with the per-batch dialect lookup
// amortized, returning the data messages among them in arrival order.
// Transports without BatchReader deliver one message per call. An
// empty result with a nil error means the batch held only control or
// rejected packets.
func (c *Conn) RecvBatch(max int) ([]*msgtree.Message, error) {
	if max <= 0 {
		max = 1
	}
	br, ok := c.rw.(BatchReader)
	if !ok {
		m, err := c.Recv()
		if err != nil {
			return nil, err
		}
		return []*msgtree.Message{m}, nil
	}
	if err := c.syncSchedule(); err != nil {
		return nil, err
	}
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if len(c.bbufs) < max {
		c.bbufs = make([][]byte, max)
		for i := range c.bbufs {
			c.bbufs[i] = make([]byte, c.maxPacket)
		}
		c.bsizes = make([]int, max)
	}
	n, err := br.ReadPacketBatch(c.bbufs[:max], c.bsizes[:max])
	if err != nil {
		return nil, err
	}
	c.stats.RecvBatchSizes.Observe(uint64(n))
	var out []*msgtree.Message
	var memo dialectMemo
	for i := 0; i < n; i++ {
		if m, _ := c.decodeLocked(c.bbufs[i][:c.bsizes[i]], &memo); m != nil {
			out = append(out, m)
		}
	}
	return out, nil
}

// Decode processes one raw packet: a data packet returns its message, a
// control packet is handled and returns (nil, nil), and a rejected
// packet returns (nil, err) after counting the reason. It is the
// packet-level entry point Recv loops over, exported for the adversary
// harness and fuzzers to drive decode behavior directly. Decode may
// modify pkt in place (unmasking).
func (c *Conn) Decode(pkt []byte) (*msgtree.Message, error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.decodeLocked(pkt, nil)
}

// dialectMemo caches the last (epoch, graph) resolution within one
// receive batch, so a run of same-epoch packets — the steady state —
// pays one dialect cache lookup, not one per packet.
type dialectMemo struct {
	valid bool
	epoch uint64
	g     *graph.Graph
}

func (c *Conn) memoDialect(epoch uint64, memo *dialectMemo) (*graph.Graph, error) {
	if memo != nil && memo.valid && memo.epoch == epoch {
		return memo.g, nil
	}
	g, err := c.ec.Dialect(epoch)
	if err == nil && memo != nil {
		*memo = dialectMemo{valid: true, epoch: epoch, g: g}
	}
	return g, err
}

// decodeLocked is Decode under pmu.
func (c *Conn) decodeLocked(pkt []byte, memo *dialectMemo) (*msgtree.Message, error) {
	if c.zo {
		return c.decodeZO(pkt, memo)
	}
	if len(pkt) < frame.EpochHeaderLen {
		c.stats.RejectedMalformed.Add(1)
		c.ec.Emit(trace.KindDgramReject, 0, "malformed")
		return nil, fmt.Errorf("dgram: packet of %d bytes is shorter than the %d-byte header", len(pkt), frame.EpochHeaderLen)
	}
	kind, n, epoch, err := frame.DecodeHeader(pkt[:frame.EpochHeaderLen])
	if err != nil || kind > frame.KindMax || frame.EpochHeaderLen+n > len(pkt) {
		c.stats.RejectedMalformed.Add(1)
		c.ec.Emit(trace.KindDgramReject, 0, "malformed")
		if err == nil {
			err = fmt.Errorf("dgram: malformed packet header (kind %#02x, length %d of %d bytes)", kind, n, len(pkt))
		}
		return nil, err
	}
	if rejected, err := c.checkWindow(epoch); rejected {
		return nil, err
	}
	body := pkt[frame.EpochHeaderLen : frame.EpochHeaderLen+n]
	if kind != frame.KindData {
		// Bytes past the payload are the control padding; ignored.
		return nil, c.handleControl(kind, epoch, body)
	}
	if len(pkt) != frame.EpochHeaderLen+n {
		// Data packets are never padded: trailing bytes mean tampering
		// or a framing bug, not slack to skip over.
		c.stats.RejectedMalformed.Add(1)
		c.ec.Emit(trace.KindDgramReject, epoch, "malformed")
		return nil, fmt.Errorf("dgram: data packet of %d bytes with %d-byte payload claim", len(pkt), n)
	}
	g, err := c.memoDialect(epoch, memo)
	if err != nil {
		c.stats.RejectedParse.Add(1)
		c.ec.Emit(trace.KindDgramReject, epoch, "parse")
		return nil, err
	}
	m, err := wire.Parse(g, body, c.ec.Split())
	if err != nil {
		c.stats.RejectedParse.Add(1)
		c.ec.Emit(trace.KindDgramReject, epoch, "parse")
		return nil, fmt.Errorf("dgram: epoch %d: %w", epoch, err)
	}
	c.ec.Raise(epoch)
	c.stats.DataRecv.Add(1)
	return m, nil
}

// checkWindow applies the epoch-window acceptance rule against the
// current horizon, counting the reject when the epoch falls outside.
func (c *Conn) checkWindow(epoch uint64) (rejected bool, err error) {
	h := c.horizon.Load()
	if epoch+c.window < h {
		c.stats.RejectedStale.Add(1)
		c.ec.Emit(trace.KindDgramReject, epoch, "stale")
		return true, fmt.Errorf("dgram: packet epoch %d is %d behind horizon %d (window %d)", epoch, h-epoch, h, c.window)
	}
	if epoch > h+c.window {
		c.stats.RejectedFuture.Add(1)
		c.ec.Emit(trace.KindDgramReject, epoch, "future")
		return true, fmt.Errorf("dgram: packet epoch %d is %d ahead of horizon %d (window %d)", epoch, epoch-h, h, c.window)
	}
	return false, nil
}

// handleControl dispatches one in-window control packet body.
func (c *Conn) handleControl(kind byte, hdrEpoch uint64, body []byte) error {
	switch kind {
	case frame.KindCover:
		c.stats.CoverDropped.Add(1)
		return nil
	case frame.KindRekeyPropose:
		if len(body) != frame.ControlLen {
			c.stats.RejectedMalformed.Add(1)
			c.ec.Emit(trace.KindDgramReject, hdrEpoch, "malformed")
			return fmt.Errorf("dgram: rekey packet with %d-byte payload, want %d", len(body), frame.ControlLen)
		}
		c.ec.MaskControl(hdrEpoch, body)
		from, seed, err := frame.DecodeControl(body)
		if err != nil || from == 0 || from != hdrEpoch+1 {
			c.stats.RejectedParse.Add(1)
			c.ec.Emit(trace.KindDgramReject, hdrEpoch, "parse")
			if err == nil {
				err = fmt.Errorf("dgram: rekey boundary %d contradicts packet epoch %d", from, hdrEpoch)
			}
			return err
		}
		return c.handleRekey(from, seed)
	default:
		// The remaining reserved kinds (rekey ack, resume, ticket) are
		// stream-layer machinery with no datagram meaning: reject them
		// countably rather than guessing.
		c.stats.RejectedMalformed.Add(1)
		c.ec.Emit(trace.KindDgramReject, hdrEpoch, "malformed")
		return fmt.Errorf("dgram: frame kind %#02x has no datagram semantics", kind)
	}
}

// handleRekey applies a peer's rekey boundary exactly once. Duplicate
// copies of the burst — and replays of any earlier boundary — are
// counted and discarded, which is what makes redundant proposals safe.
// The first copy traces a rekey-ack with detail "peer", as the stream
// acceptor does; duplicates trace nothing.
func (c *Conn) handleRekey(from uint64, seed int64) error {
	if !c.ec.CanRekey() {
		c.stats.RejectedMalformed.Add(1)
		return errors.New("dgram: peer requested rekey but versioner cannot rekey")
	}
	c.mu.Lock()
	if lr := c.lastRekey; lr != nil && from <= lr.from {
		c.mu.Unlock()
		c.stats.RekeyDups.Add(1)
		return nil
	}
	c.mu.Unlock()
	if err := c.ec.ApplyRekey(from, seed); err != nil {
		c.stats.RejectedParse.Add(1)
		return err
	}
	c.mu.Lock()
	c.lastRekey = &rekeyPoint{from: from, seed: seed}
	c.mu.Unlock()
	c.stats.RekeysApplied.Add(1)
	c.ec.Emit(trace.KindRekeyAck, from, "peer")
	// Adopt the boundary as the horizon: the peer is already sending
	// under the new family at `from`.
	if err := c.Advance(from); err != nil {
		return err
	}
	return nil
}

// dropPadsFrom invalidates cached packet pads at or past a rekey
// boundary, derived under the old family (the epoch core's OnDrop).
func (c *Conn) dropPadsFrom(from uint64) {
	c.mu.Lock()
	c.pads.DeleteIf(func(e uint64, _ []byte) bool { return e >= from }, nil)
	c.mu.Unlock()
}
