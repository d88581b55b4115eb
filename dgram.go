package protoobf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"protoobf/internal/session/dgram"
)

// PacketSession is an obfuscated message session over a datagram
// transport: one message per packet, every packet self-contained and
// decoded independently by its epoch within a window of the receive
// horizon — loss, reordering and duplication degrade throughput, never
// the session. Control traffic (idempotent rekey bursts, cover chaff)
// rides reserved frame kinds; zero-overhead mode (WithZeroOverhead)
// strips even the framing header from data packets. Packet sessions
// are minted from an Endpoint via PacketSession, DialPacket or
// ListenPacket; see internal/session/dgram for the wire details and
// docs/DATAGRAM.md for the format and guarantees.
type PacketSession = dgram.Conn

// WithEpochWindow sets the packet session's epoch decode window W:
// packets up to W epochs behind or ahead of the receive horizon
// decode; the rest are dropped and counted. It replaces the stream
// layer's epoch-follow rule, which needs in-order delivery. 0 (the
// default) means dgram.DefaultEpochWindow. Packet-session only.
func WithEpochWindow(w uint64) Option {
	return func(cfg *settings) { cfg.epochWindow = &w }
}

// WithZeroOverhead sends data packets with zero added bytes: the wire
// packet is exactly the obfuscated payload, with only a structural
// prefix masked by a secret-derived per-epoch pad, and the receiver
// trial-decodes against its epoch window. Control packets keep full
// treatment plus random padding. Both peers must agree on the mode,
// and the endpoint must rotate (static protocols cannot derive packet
// pads). Packet-session only.
func WithZeroOverhead(on bool) Option {
	return func(cfg *settings) { cfg.zeroOverhead = &on }
}

// WithMaxPacket bounds one datagram in bytes (0 = dgram.DefaultMaxPacket).
// Messages that serialize past the bound fail at Send — packet
// sessions never fragment. Packet-session only.
func WithMaxPacket(n int) Option {
	return func(cfg *settings) { cfg.maxPacket = &n }
}

// PacketSession opens a packet session over rw speaking the endpoint's
// dialect family. The transport contract is datagram semantics: one
// Write sends one packet, one Read returns one whole packet — a
// connected *net.UDPConn and the PacketPipe pair both qualify; an
// ordinary TCP stream does not.
func (ep *Endpoint) PacketSession(rw io.ReadWriter, o ...SessionOption) (*PacketSession, error) {
	cfg, err := ep.packetConfig(o)
	if err != nil {
		return nil, err
	}
	versions, err := ep.versioner(cfg)
	if err != nil {
		return nil, err
	}
	return dgram.NewConn(rw, versions, ep.packetOpts(cfg))
}

// packetConfig layers per-session options over the endpoint defaults
// and rejects options that have no packet-session meaning: packet
// sessions do not shape traffic, resume, or auto-rekey (rekey via
// PacketSession.Rekey).
func (ep *Endpoint) packetConfig(o []SessionOption) (settings, error) {
	cfg := ep.base
	for _, fn := range o {
		fn(&cfg)
	}
	if cfg.versionWindow != ep.base.versionWindow || cfg.versionShards != ep.base.versionShards ||
		cfg.prefetch != ep.base.prefetch || cfg.artifactDir != ep.base.artifactDir ||
		cfg.replayWindow != ep.base.replayWindow {
		return cfg, errors.New("protoobf: endpoint-level option in packet-session position; pass it to NewEndpoint")
	}
	if cfg.shape != ep.base.shape {
		return cfg, errors.New("protoobf: WithShaping is stream-session-level; packet sessions do not shape traffic")
	}
	if cfg.rekeyEvery != ep.base.rekeyEvery || cfg.rekeyAfterBytes != ep.base.rekeyAfterBytes {
		return cfg, errors.New("protoobf: automatic rekey triggers are stream-session-level; rekey packet sessions explicitly via Rekey")
	}
	if cfg.resumeWindow != ep.base.resumeWindow || cfg.reissue != ep.base.reissue {
		return cfg, errors.New("protoobf: resumption options are stream-session-level; packet sessions are stateless per packet and need no resume")
	}
	return cfg, nil
}

// packetOpts maps a layered configuration onto the datagram layer's
// option struct, wiring in the endpoint's shared packet counters,
// latency histograms and trace ring.
func (ep *Endpoint) packetOpts(cfg settings) dgram.Options {
	var opts dgram.Options
	opts.Schedule = cfg.schedule
	if cfg.epochWindow != nil {
		opts.Window = *cfg.epochWindow
	}
	if cfg.zeroOverhead != nil {
		opts.ZeroOverhead = *cfg.zeroOverhead
	}
	if cfg.maxPacket != nil {
		opts.MaxPacket = *cfg.maxPacket
	}
	if cfg.cacheWindow != nil {
		opts.CacheWindow = *cfg.cacheWindow
	}
	opts.Stats = &ep.dgramStats
	opts.Latency = &ep.latency
	opts.Trace = ep.trace
	opts.TraceID = ep.trace.NextSession()
	return opts
}

// DialPacket connects a datagram socket to addr on the named network
// ("udp", "udp4", "udp6", "unixgram") and opens a packet session over
// it. The session owns the connection: PacketSession.Close closes it.
func (ep *Endpoint) DialPacket(ctx context.Context, network, addr string, o ...SessionOption) (*PacketSession, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	s, err := ep.PacketSession(conn, o...)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("protoobf: dial packet %s: %w", addr, err)
	}
	return s, nil
}

// ListenPacket binds a datagram socket on the local address (see
// net.ListenPacket) and returns an acceptor that demultiplexes
// incoming packets by source address: the first packet from a new
// peer creates a packet session for that peer, surfaced by Accept.
// Per-session options given here apply to every accepted session.
func (ep *Endpoint) ListenPacket(network, addr string, o ...SessionOption) (*PacketListener, error) {
	// Validate the session configuration before binding the socket, so
	// a bad option fails here and not on the first accepted peer.
	if _, err := ep.packetConfig(o); err != nil {
		return nil, err
	}
	pc, err := net.ListenPacket(network, addr)
	if err != nil {
		return nil, err
	}
	l := &PacketListener{
		pc:     pc,
		ep:     ep,
		opts:   o,
		peers:  make(map[string]*peerLeg),
		accept: make(chan *PacketSession, 16),
		errs:   make(chan error, 1),
	}
	go l.demux()
	return l, nil
}

// PacketListener accepts packet sessions demultiplexed from one
// datagram socket: every distinct source address becomes one session,
// fed by the listener's read loop through a bounded per-peer queue
// (overflow drops packets — datagram semantics — rather than letting
// one slow peer stall the socket).
type PacketListener struct {
	pc   net.PacketConn
	ep   *Endpoint
	opts []SessionOption

	mu     sync.Mutex
	peers  map[string]*peerLeg
	closed bool

	accept chan *PacketSession
	errs   chan error
}

// maxDatagram sizes the listener's socket reads: a full UDP payload,
// so oversized peers are detected by the session's own bound rather
// than silently truncated at the socket.
const maxDatagram = 64 * 1024

// demux is the listener's read loop: one socket read per packet,
// routed to the owning peer's queue, minting the peer's session on
// first contact.
func (l *PacketListener) demux() {
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := l.pc.ReadFrom(buf)
		if err != nil {
			l.mu.Lock()
			for _, p := range l.peers {
				p.close()
			}
			l.mu.Unlock()
			select {
			case l.errs <- err:
			default:
			}
			close(l.accept)
			return
		}
		key := from.String()
		l.mu.Lock()
		leg, ok := l.peers[key]
		if !ok {
			leg = newPeerLeg(l.pc, from)
			l.peers[key] = leg
			l.mu.Unlock()
			s, err := l.ep.PacketSession(leg, l.opts...)
			if err != nil {
				// Session construction failed (bad per-listener options
				// surface in ListenPacket; this is e.g. a compile error):
				// forget the peer so a later packet retries.
				l.mu.Lock()
				delete(l.peers, key)
				l.mu.Unlock()
				continue
			}
			leg.deliver(buf[:n])
			l.accept <- s
			continue
		}
		l.mu.Unlock()
		leg.deliver(buf[:n])
	}
}

// Accept waits for the first packet from a new peer and returns the
// ready session for that peer. After Close (or a fatal socket error)
// it returns the socket's error.
func (l *PacketListener) Accept() (*PacketSession, error) {
	s, ok := <-l.accept
	if !ok {
		select {
		case err := <-l.errs:
			return nil, err
		default:
			return nil, net.ErrClosed
		}
	}
	return s, nil
}

// Close closes the socket; the read loop winds down, per-peer queues
// EOF after draining, and blocked Accept calls return.
func (l *PacketListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	return l.pc.Close()
}

// Addr returns the listener's bound address.
func (l *PacketListener) Addr() net.Addr { return l.pc.LocalAddr() }

// peerLeg is one accepted peer's transport: reads drain the demuxed
// queue, writes go out the shared socket to the peer's address.
type peerLeg struct {
	pc   net.PacketConn
	addr net.Addr

	mu     sync.Mutex
	cond   *sync.Cond
	pkts   [][]byte
	closed bool
}

// peerQueueBound caps how many packets one peer's session can leave
// undrained before the listener starts dropping that peer's packets.
const peerQueueBound = 256

func newPeerLeg(pc net.PacketConn, addr net.Addr) *peerLeg {
	p := &peerLeg{pc: pc, addr: addr}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *peerLeg) deliver(pkt []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.pkts) >= peerQueueBound {
		return
	}
	p.pkts = append(p.pkts, append([]byte(nil), pkt...))
	p.cond.Signal()
}

func (p *peerLeg) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.pkts) == 0 {
		if p.closed {
			return 0, io.EOF
		}
		p.cond.Wait()
	}
	pkt := p.pkts[0]
	p.pkts = p.pkts[1:]
	return copy(b, pkt), nil
}

func (p *peerLeg) Write(b []byte) (int, error) {
	return p.pc.WriteTo(b, p.addr)
}

func (p *peerLeg) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// PacketPipe returns the two ends of an in-memory datagram pair — the
// packet analogue of Pipe: whole packets, bounded queues that drop on
// overflow, reads that truncate, and the batch fast paths
// PacketSession.SendBatch/RecvBatch exploit. The loopback transport
// for tests, examples and benchmarks.
func PacketPipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	return dgram.NewPair()
}
