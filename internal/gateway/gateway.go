package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"protoobf/internal/core"
	"protoobf/internal/frame"
	"protoobf/internal/session"
)

// maxTicketWire bounds a resume payload the gateway will buffer before
// routing — the session layer's own ticket ceiling (core enforces the
// same 8 KiB on open), so anything larger is garbage, not a ticket.
const maxTicketWire = 8192

// Config configures a Gateway.
type Config struct {
	// Registry is the routing table of backend processes. Required.
	Registry *Registry

	// Opener verifies and inspects resumption tickets (the fleet's
	// shared base seed opens every ticket its backends seal — see
	// SeedOpener or Endpoint.TicketOpener). When nil the gateway cannot
	// authenticate resumes and routes every stream round-robin like a
	// fresh dial.
	Opener session.TicketOpener

	// Replay, when non-nil, is the fleet-wide single-use ticket cache:
	// the gateway witnesses every authentic resume ticket before
	// routing it, so a captured ticket replayed against the fleet — on
	// any backend — is dropped at the front door.
	Replay *session.ReplayCache

	// DialTimeout bounds each backend dial (0 means 10s).
	DialTimeout time.Duration

	// HeaderTimeout bounds how long an accepted stream may take to
	// produce its opening frame header and, for resumes, the ticket
	// payload (0 means 30s). It caps slow-loris holds on the routing
	// peek; after routing the gateway imposes no deadlines.
	HeaderTimeout time.Duration
}

// Counters is the gateway's routing telemetry. All fields are atomic;
// read a consistent-enough view with Stats.
type Counters struct {
	// Accepted counts streams accepted from the listener.
	Accepted atomic.Uint64
	// FreshRouted counts streams routed round-robin (fresh dials, and
	// everything when no Opener is configured).
	FreshRouted atomic.Uint64
	// ResumeRouted counts authenticated resume streams routed by
	// dialect family.
	ResumeRouted atomic.Uint64
	// ReplayRejects counts authentic tickets dropped because the fleet
	// replay cache had already seen them.
	ReplayRejects atomic.Uint64
	// ForgedRejects counts resume streams dropped because their ticket
	// did not verify under the fleet seed.
	ForgedRejects atomic.Uint64
	// DialErrors counts failed backend dials (the stream is dropped).
	DialErrors atomic.Uint64
	// HeaderErrors counts streams dropped before routing: torn or
	// oversized opening frames, header timeouts, empty registry.
	HeaderErrors atomic.Uint64
}

// Stats is a point-in-time copy of Counters. Its tags name the
// protoobf_gateway_* families it renders as on the gateway's /metrics
// page (see metrics.Page).
type Stats struct {
	Accepted      uint64 `prom:"protoobf_gateway_accepted_total" help:"Streams accepted from the gateway listener."`
	FreshRouted   uint64 `prom:"protoobf_gateway_fresh_routed_total" help:"Streams routed round-robin as fresh dials."`
	ResumeRouted  uint64 `prom:"protoobf_gateway_resume_routed_total" help:"Authenticated resume streams routed by dialect family."`
	ReplayRejects uint64 `prom:"protoobf_gateway_replay_rejects_total" help:"Authentic tickets dropped by the fleet replay cache (single-use)."`
	ForgedRejects uint64 `prom:"protoobf_gateway_forged_rejects_total" help:"Resume streams dropped because the ticket failed verification."`
	DialErrors    uint64 `prom:"protoobf_gateway_dial_errors_total" help:"Streams dropped on a failed backend dial."`
	HeaderErrors  uint64 `prom:"protoobf_gateway_header_errors_total" help:"Streams dropped before routing (torn or oversized opening frame, header timeout, empty registry)."`
}

// Gateway routes protoobf streams to backend processes. One Gateway
// may serve multiple listeners; Close stops them all.
type Gateway struct {
	cfg Config
	n   Counters

	mu        sync.Mutex
	listeners []net.Listener
	closed    bool
	wg        sync.WaitGroup
}

// New builds a Gateway from cfg, filling timeout defaults.
func New(cfg Config) (*Gateway, error) {
	if cfg.Registry == nil {
		return nil, errors.New("gateway: Config.Registry is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.HeaderTimeout <= 0 {
		cfg.HeaderTimeout = 30 * time.Second
	}
	return &Gateway{cfg: cfg}, nil
}

// Serve accepts streams from ln until ln or the gateway closes. A
// closed listener returns nil; other accept errors are returned.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return errors.New("gateway: closed")
	}
	g.listeners = append(g.listeners, ln)
	g.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		g.n.Accepted.Add(1)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.handle(conn)
		}()
	}
}

// ListenAndServe listens on addr (TCP) and serves it.
func (g *Gateway) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return g.Serve(ln)
}

// Close stops all listeners and waits for in-flight routing peeks (not
// spliced streams — those end with their peers).
func (g *Gateway) Close() error {
	g.mu.Lock()
	g.closed = true
	lns := g.listeners
	g.listeners = nil
	g.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	return nil
}

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Accepted:      g.n.Accepted.Load(),
		FreshRouted:   g.n.FreshRouted.Load(),
		ResumeRouted:  g.n.ResumeRouted.Load(),
		ReplayRejects: g.n.ReplayRejects.Load(),
		ForgedRejects: g.n.ForgedRejects.Load(),
		DialErrors:    g.n.DialErrors.Load(),
		HeaderErrors:  g.n.HeaderErrors.Load(),
	}
}

// handle peeks one stream's opening frame, routes it, and splices.
func (g *Gateway) handle(client net.Conn) {
	defer func() {
		if client != nil {
			client.Close()
		}
	}()

	client.SetReadDeadline(time.Now().Add(g.cfg.HeaderTimeout))
	var hdr [frame.EpochHeaderLen]byte
	if _, err := io.ReadFull(client, hdr[:]); err != nil {
		g.n.HeaderErrors.Add(1)
		return
	}
	kind, payloadLen, _, err := frame.DecodeHeader(hdr[:])
	if err != nil {
		g.n.HeaderErrors.Add(1)
		return
	}

	var (
		backend Backend
		ok      bool
		payload []byte
	)
	if kind == frame.KindResume && g.cfg.Opener != nil {
		// The opening frame is a resumption ticket: authenticate it at
		// the front door, spend its single use fleet-wide, and route by
		// the dialect family it names.
		if payloadLen > maxTicketWire {
			g.n.HeaderErrors.Add(1)
			return
		}
		payload = make([]byte, payloadLen)
		if _, err := io.ReadFull(client, payload); err != nil {
			g.n.HeaderErrors.Add(1)
			return
		}
		info, err := session.InspectTicket(g.cfg.Opener, payload)
		if err != nil {
			g.n.ForgedRejects.Add(1)
			return
		}
		if g.cfg.Replay != nil && g.cfg.Replay.Witness(payload) {
			g.n.ReplayRejects.Add(1)
			return
		}
		if info.Rekeyed {
			// A rekeyed session's family lives only in the processes
			// that negotiated it (or can restore it from the ticket) —
			// prefer the backend that last served the family, falling
			// back to fresh placement, which the ticket itself makes
			// correct: the backend rebuilds the lineage from it.
			backend, ok = g.cfg.Registry.Owner(info.Family)
			if !ok {
				backend, ok = g.cfg.Registry.Pick()
			}
			if ok {
				g.cfg.Registry.Claim(info.Family, backend.Name)
			}
		} else {
			backend, ok = g.cfg.Registry.Pick()
		}
		if !ok {
			g.n.HeaderErrors.Add(1)
			return
		}
		g.n.ResumeRouted.Add(1)
	} else {
		backend, ok = g.cfg.Registry.Pick()
		if !ok {
			g.n.HeaderErrors.Add(1)
			return
		}
		g.n.FreshRouted.Add(1)
	}
	client.SetReadDeadline(time.Time{})

	up, err := net.DialTimeout("tcp", backend.Addr, g.cfg.DialTimeout)
	if err != nil {
		g.n.DialErrors.Add(1)
		return
	}
	if _, err := up.Write(hdr[:]); err != nil {
		up.Close()
		g.n.DialErrors.Add(1)
		return
	}
	if len(payload) > 0 {
		if _, err := up.Write(payload); err != nil {
			up.Close()
			g.n.DialErrors.Add(1)
			return
		}
	}
	c := client
	client = nil // splice owns both ends now
	splice(c, up)
}

// splice copies bytes both ways until both directions end, propagating
// half-closes so a clean shutdown on one side drains the other.
func splice(a, b net.Conn) {
	var wg sync.WaitGroup
	wg.Add(2)
	cp := func(dst, src net.Conn) {
		defer wg.Done()
		io.Copy(dst, src)
		if hc, ok := dst.(interface{ CloseWrite() error }); ok {
			hc.CloseWrite()
		} else {
			dst.Close()
		}
	}
	go cp(a, b)
	go cp(b, a)
	wg.Wait()
	a.Close()
	b.Close()
}

// SeedOpener builds a ticket opener from the fleet's base master seed:
// it opens any resumption ticket sealed by a backend whose dialect
// family was compiled from the same seed. This is what a standalone
// gateway process — which never compiles a spec — authenticates with.
func SeedOpener(seed int64) session.TicketOpener { return seedOpener(seed) }

type seedOpener int64

func (s seedOpener) OpenResume(ticket []byte) ([]byte, error) {
	return core.OpenTicket(int64(s), ticket)
}

var _ fmt.Stringer = Backend{}

// String renders a backend as name=addr, the flag syntax that creates
// one.
func (b Backend) String() string { return b.Name + "=" + b.Addr }
