package protoobf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"protoobf/internal/artifact"
	"protoobf/internal/core"
	"protoobf/internal/metrics"
	"protoobf/internal/session"
	"protoobf/internal/trace"
)

// Endpoint is the share-safe entry point for a dialect family: it
// compiles the family once (one Rotation with a sharded compiled-version
// cache) and mints any number of concurrent sessions from it — over
// streams the caller owns (Session), over dialed connections (Dial), or
// from an accept loop (Listen). This is the paper's §VIII deployment
// shape: one compiled family serving many peers, every peer re-deriving
// each epoch's dialect independently.
//
// Sessions of one Endpoint share compiled dialects but never rekey
// state: each session resolves epochs through its own rekey view, so an
// in-band rekey negotiated on one connection (WithRekeyEvery or
// Session.Rekey) switches only that connection's family.
//
// An Endpoint is safe for concurrent use.
type Endpoint struct {
	rot  *core.Rotation
	base settings

	// replay, when non-nil (WithTicketReplayWindow), makes resumption
	// tickets single-use across every session this endpoint accepts.
	replay *session.ReplayCache

	// prefetchStats counts the prefetch daemon's work; prefetchOn
	// guards against two daemons racing on one endpoint.
	prefetchStats metrics.PrefetchCounters
	prefetchOn    atomic.Bool

	// resumeStats aggregates the session-migration activity of every
	// session this endpoint mints: tickets exported, resumes accepted,
	// rejections by reason.
	resumeStats metrics.ResumeCounters

	// shapeStats aggregates the traffic-shaping activity of every
	// session this endpoint mints: frames morphed, pad and delay
	// overhead, cover frames sent and discarded, receive-side rejects.
	shapeStats metrics.ShapeCounters

	// dgramStats aggregates the packet-session activity of every
	// PacketSession this endpoint mints: packets moved, epoch-window
	// rejects, idempotent-rekey bookkeeping, framing overhead.
	dgramStats metrics.DgramCounters

	// latency aggregates the control-plane latency histograms of every
	// session this endpoint mints: epoch-boundary crossings, rekey
	// handshake round trips, resume handshake round trips.
	latency metrics.LatencyCounters

	// trace, when non-nil (WithTrace), records lifecycle events of every
	// session this endpoint mints into one bounded ring.
	trace *trace.Ring
}

// settings carries the control-plane configuration shared by endpoint
// and session construction. Option values layer: endpoint options set
// the defaults, per-session options override them.
type settings struct {
	schedule        *Schedule
	rekeyEvery      *uint64
	rekeyAfterBytes *uint64
	cacheWindow     *int
	resumeWindow    *uint64
	static          *Protocol
	versionWindow   int
	versionShards   int
	prefetch        int
	prefetchSleep   func(ctx context.Context, d time.Duration) bool
	shape           *ShapeProfile
	shapeClock      func() time.Time
	shapeSleep      func(time.Duration)
	artifactDir     string
	replayWindow    *int
	reissue         *bool
	epochWindow     *uint64
	zeroOverhead    *bool
	maxPacket       *int
	traceCap        int
}

// Option is a functional option accepted by both NewEndpoint and
// Endpoint.Session (and the session-minting Dial/Listen): options given
// at endpoint construction become the default for every session, and
// options given per session override them for that session only.
type Option func(*settings)

// EndpointOption documents an Option in endpoint position.
type EndpointOption = Option

// SessionOption documents an Option in session position.
type SessionOption = Option

// WithSchedule derives the session epoch from coarse wall-clock time:
// sessions adopt the schedule's epoch on every NewMessage/Recv, so all
// peers sharing (genesis, interval) converge on the same dialect with no
// coordination, even across partitions. A nil schedule (the default)
// means epochs move only via Rotate/Advance or by following the peer.
func WithSchedule(s *Schedule) Option {
	return func(cfg *settings) { cfg.schedule = s }
}

// WithRekeyEvery proposes an in-band rekey — a fresh master seed for the
// dialect family, exchanged as a masked control frame and acknowledged
// before either side uses it — every n epochs. n = 0 (the default)
// disables automatic rekeying. Each session rekeys its own view of the
// family, so the option is safe on endpoints serving many sessions.
func WithRekeyEvery(n uint64) Option {
	return func(cfg *settings) { cfg.rekeyEvery = &n }
}

// WithRekeyAfterBytes proposes an in-band rekey once n bytes of framed
// traffic (payloads plus epoch headers, both directions) have moved on
// a session since its last rekey boundary — the ScrambleSuit-style
// volume trigger: heavy sessions rotate their seed family by traffic
// volume, not just on the epoch clock, bounding how much wire material
// any one family covers. Cover frames do not count: receivers discard
// them uncounted. n = 0 (the default) disables the trigger. It
// composes with WithRekeyEvery; whichever fires first proposes. Each
// session rekeys its own view, so the option is safe on endpoints
// serving many sessions.
func WithRekeyAfterBytes(n uint64) Option {
	return func(cfg *settings) { cfg.rekeyAfterBytes = &n }
}

// WithPrefetch sets how many upcoming epochs the endpoint's prefetch
// daemon (StartPrefetch) keeps compiled ahead of the schedule: at each
// epoch boundary the daemon compiles epochs next..next+n-1 before they
// become current, so sessions never pay a dialect compile on their hot
// path when the boundary arrives. n <= 0 leaves the default depth of 1.
// Endpoint-level only (the daemon is per endpoint, not per session).
func WithPrefetch(n int) Option {
	return func(cfg *settings) { cfg.prefetch = n }
}

// withPrefetchSleep injects the daemon's boundary wait for tests: fn is
// called with the time remaining until the next epoch boundary and
// returns false to stop the daemon (the production implementation waits
// on a timer or ctx.Done).
func withPrefetchSleep(fn func(ctx context.Context, d time.Duration) bool) Option {
	return func(cfg *settings) { cfg.prefetchSleep = fn }
}

// WithCacheWindow bounds how many compiled dialect epochs each session
// keeps: 0 means the default (session.DefaultCacheWindow), negative
// means unbounded. Evicted epochs recompile deterministically on
// demand — usually a hit in the endpoint's shared version cache — so the
// window keeps long-lived sessions at O(window) memory. For the shared
// version cache itself see WithVersionCache.
func WithCacheWindow(n int) Option {
	return func(cfg *settings) { cfg.cacheWindow = &n }
}

// WithResumeWindow bounds the lifetime of resumption tickets, in
// epochs: a session of this endpoint rejects (and counts, see Metrics)
// any ticket whose epoch lies more than n epochs behind its current
// one. Shorter windows bound how long a captured ticket could re-attach
// a stolen session; longer windows let peers return from longer
// outages. n = 0 (the default) means session.DefaultResumeWindow (64).
// It applies both to acceptors and to Resume/DialResume, which fail
// fast on a locally expired ticket.
func WithResumeWindow(n uint64) Option {
	return func(cfg *settings) { cfg.resumeWindow = &n }
}

// WithStaticProtocol pins sessions to a single fixed protocol in every
// epoch: session framing without dialect rotation. On NewEndpoint it
// makes the whole endpoint static (the spec and options arguments are
// ignored and no Rotation is compiled); on Endpoint.Session it pins just
// that session. Static sessions refuse to rekey.
func WithStaticProtocol(p *Protocol) Option {
	return func(cfg *settings) { cfg.static = p }
}

// WithVersionCache sizes the endpoint's shared compiled-version cache:
// window bounds the total number of cached versions across all sessions
// and families (0 means the default, negative means unbounded), and
// shards picks the lock-shard count (0 means the default; 1 degenerates
// to a single-mutex cache). Endpoint-level only; sessions bound their
// private dialect windows with WithCacheWindow.
func WithVersionCache(window, shards int) Option {
	return func(cfg *settings) {
		cfg.versionWindow = window
		cfg.versionShards = shards
	}
}

// WithArtifactCache backs the endpoint's dialect family with an
// on-disk artifact store at dir: every compiled dialect version is
// saved as a versioned artifact keyed by (spec digest, family seed,
// epoch), and version lookups try the store before compiling. A second
// process — or the same one after a restart — built from the same spec
// and options loads its dialects from the cache instead of recompiling,
// so backend cold-start and epoch storms become disk reads. Corrupt or
// mismatched artifacts are counted (Metrics().Rotation.ArtifactErrors)
// and fall back to compilation; the cache never changes wire behavior,
// only who pays for compilation. Endpoint-level only.
func WithArtifactCache(dir string) Option {
	return func(cfg *settings) { cfg.artifactDir = dir }
}

// WithTicketReplayWindow makes resumption tickets single-use across
// every session the endpoint accepts: a replay cache remembering up to
// n recently presented tickets (0 means session.DefaultReplayWindow)
// refuses the second presentation of any ticket with a counted
// `replay` reject reason. Without it (the default) a ticket stays
// acceptable until its resume window expires, which keeps reconnect
// semantics loose for single-process deployments; fleets fronted by a
// gateway should enable it and rely on WithTicketReissue to keep
// migrated sessions resumable. Endpoint-level only (the cache is what
// makes tickets single-use across sessions).
func WithTicketReplayWindow(n int) Option {
	return func(cfg *settings) { cfg.replayWindow = &n }
}

// WithTicketReissue pushes a fresh resumption ticket to the peer
// in-band after every committed rekey and after accepting a resume, so
// a session whose previous ticket was spent (single-use under a replay
// cache) or invalidated (by the rekey) is immediately migratable
// again. The peer stores the newest ticket; Session.StoredTicket
// returns it. Off by default.
func WithTicketReissue(on bool) Option {
	return func(cfg *settings) { cfg.reissue = &on }
}

// WithTrace turns on session event tracing: the endpoint keeps the
// newest n lifecycle events — session open/close, epoch crossings,
// rekey handshake steps, resume accepts and rejects (with reason),
// cover bursts, datagram rejects — of every session it mints in one
// bounded ring, read via Endpoint.Trace or served as /trace.json by
// ObsHandler. n <= 0 (the default) disables tracing, at the cost of a
// nil-check on each would-be emission. Endpoint-level only.
func WithTrace(n int) Option {
	return func(cfg *settings) { cfg.traceCap = n }
}

// NewEndpoint compiles the dialect family of (spec, opts) once and
// returns the endpoint that mints its sessions. Endpoint options become
// the default control-plane configuration of every session; each can be
// overridden per session.
func NewEndpoint(spec string, opts Options, o ...EndpointOption) (*Endpoint, error) {
	ep := &Endpoint{}
	for _, fn := range o {
		fn(&ep.base)
	}
	if ep.base.static == nil {
		var store *artifact.Store
		if dir := ep.base.artifactDir; dir != "" {
			var err error
			if store, err = artifact.NewStore(dir); err != nil {
				return nil, fmt.Errorf("protoobf: artifact cache: %w", err)
			}
		}
		rot, err := core.NewRotationCache(spec, opts, ep.base.versionWindow, ep.base.versionShards, store)
		if err != nil {
			return nil, err
		}
		ep.rot = rot
	}
	if w := ep.base.replayWindow; w != nil {
		ep.replay = session.NewReplayCache(*w)
	}
	if n := ep.base.traceCap; n > 0 {
		ep.trace = trace.New(n)
	}
	return ep, nil
}

// Session opens a session over rw speaking the endpoint's dialect
// family, with the endpoint's control-plane defaults overridden by any
// per-session options. The stream stays owned by the caller unless the
// caller uses Session.Close, which closes rw when it implements
// io.Closer.
func (ep *Endpoint) Session(rw io.ReadWriter, o ...SessionOption) (*Session, error) {
	cfg, err := ep.sessionConfig(o)
	if err != nil {
		return nil, err
	}
	versions, err := ep.versioner(cfg)
	if err != nil {
		return nil, err
	}
	return session.NewConn(rw, versions, ep.sessionOpts(cfg))
}

// versioner resolves the dialect family a new session of cfg speaks,
// stream or packet: the pinned static protocol, or a fresh rekey view of
// the endpoint's rotation.
func (ep *Endpoint) versioner(cfg settings) (session.Versioner, error) {
	switch {
	case cfg.static != nil:
		return session.Fixed(cfg.static.Graph), nil
	case ep.rot == nil:
		// A static endpoint whose per-session options cleared the
		// static protocol: there is no family to fall back to.
		return nil, errors.New("protoobf: static endpoint has no dialect family; sessions need WithStaticProtocol")
	}
	return ep.rot.View(), nil
}

// sessionConfig layers per-session options over the endpoint defaults
// and rejects endpoint-level options in session position.
func (ep *Endpoint) sessionConfig(o []SessionOption) (settings, error) {
	cfg := ep.base
	for _, fn := range o {
		fn(&cfg)
	}
	if cfg.versionWindow != ep.base.versionWindow || cfg.versionShards != ep.base.versionShards {
		return cfg, errors.New("protoobf: WithVersionCache is endpoint-level; pass it to NewEndpoint")
	}
	if cfg.prefetch != ep.base.prefetch {
		return cfg, errors.New("protoobf: WithPrefetch is endpoint-level; pass it to NewEndpoint")
	}
	if cfg.artifactDir != ep.base.artifactDir {
		return cfg, errors.New("protoobf: WithArtifactCache is endpoint-level; pass it to NewEndpoint")
	}
	if cfg.replayWindow != ep.base.replayWindow {
		return cfg, errors.New("protoobf: WithTicketReplayWindow is endpoint-level; pass it to NewEndpoint")
	}
	if cfg.traceCap != ep.base.traceCap {
		return cfg, errors.New("protoobf: WithTrace is endpoint-level; pass it to NewEndpoint")
	}
	if cfg.epochWindow != ep.base.epochWindow || cfg.zeroOverhead != ep.base.zeroOverhead || cfg.maxPacket != ep.base.maxPacket {
		return cfg, errors.New("protoobf: WithEpochWindow/WithZeroOverhead/WithMaxPacket configure packet sessions; pass them to PacketSession, DialPacket or ListenPacket")
	}
	return cfg, nil
}

// sessionOpts maps a layered configuration onto the session layer's
// option struct, wiring in the endpoint's shared resume counters.
func (ep *Endpoint) sessionOpts(cfg settings) session.Options {
	var sopts session.Options
	sopts.Schedule = cfg.schedule
	if cfg.rekeyEvery != nil {
		sopts.RekeyEvery = *cfg.rekeyEvery
	}
	if cfg.rekeyAfterBytes != nil {
		sopts.RekeyAfterBytes = *cfg.rekeyAfterBytes
	}
	if cfg.cacheWindow != nil {
		sopts.CacheWindow = *cfg.cacheWindow
	}
	if cfg.resumeWindow != nil {
		sopts.ResumeWindow = *cfg.resumeWindow
	}
	sopts.ResumeStats = &ep.resumeStats
	sopts.Replay = ep.replay
	if cfg.reissue != nil {
		sopts.ReissueTickets = *cfg.reissue
	}
	if cfg.shape != nil {
		p := *cfg.shape // each session owns its copy; profiles are small
		sopts.Shape = &p
	}
	sopts.ShapeClock = cfg.shapeClock
	sopts.ShapeSleep = cfg.shapeSleep
	sopts.ShapeStats = &ep.shapeStats
	sopts.Latency = &ep.latency
	sopts.Trace = ep.trace
	sopts.TraceID = ep.trace.NextSession()
	return sopts
}

// Resume reconstructs an exported session on a fresh byte stream: the
// ticket (from Session.Export, possibly minted by a different endpoint
// built from the same spec and seed) is opened locally, the session's
// rekey lineage and epoch are restored, and the in-band resume
// handshake re-attaches it to the peer on the other side of rw. The
// returned session is usable immediately; the acceptor's ack completes
// in-band on the Recv path. This is how sessions that have rekeyed —
// which a fresh Dial can never rejoin — survive connection loss.
//
// Like Session, the stream stays owned by the caller unless the caller
// uses Session.Close. Static endpoints cannot resume.
func (ep *Endpoint) Resume(rw io.ReadWriter, ticket []byte, o ...SessionOption) (*Session, error) {
	cfg, err := ep.sessionConfig(o)
	if err != nil {
		return nil, err
	}
	if cfg.static != nil || ep.rot == nil {
		return nil, errors.New("protoobf: static endpoints do not support session resumption")
	}
	return session.ResumeConn(rw, ep.rot.View(), ep.sessionOpts(cfg), ticket)
}

// DialResume connects to addr on the named network (see net.Dial) and
// resumes the exported session over the fresh connection — the
// reconnect path of a peer whose previous connection dropped. The
// returned session owns the connection: Session.Close closes it.
func (ep *Endpoint) DialResume(ctx context.Context, network, addr string, ticket []byte, o ...SessionOption) (*Session, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	s, err := ep.Resume(conn, ticket, o...)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("protoobf: resume %s: %w", addr, err)
	}
	return s, nil
}

// Dial connects to addr on the named network (see net.Dial) and opens a
// session speaking the endpoint's dialect family over the connection.
// The returned session owns the connection: Session.Close closes it.
func (ep *Endpoint) Dial(ctx context.Context, network, addr string, o ...SessionOption) (*Session, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	s, err := ep.Session(conn, o...)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("protoobf: dial %s: %w", addr, err)
	}
	return s, nil
}

// Listen announces on the local network address (see net.Listen) and
// returns an acceptor whose Accept yields ready sessions of this
// endpoint. Per-session options given here apply to every accepted
// session.
func (ep *Endpoint) Listen(network, addr string, o ...SessionOption) (*Listener, error) {
	l, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l, ep: ep, opts: o}, nil
}

// Version returns the compiled protocol of the given epoch under the
// endpoint's base family — what a rotation daemon pre-compiling the next
// epoch ahead of its boundary calls, and the shared lookup every session
// of the endpoint resolves through. For a static endpoint every epoch
// returns the pinned protocol.
func (ep *Endpoint) Version(epoch uint64) (*Protocol, error) {
	if ep.base.static != nil {
		return ep.base.static, nil
	}
	return ep.rot.Version(epoch)
}

// TicketOpener exposes the endpoint's dialect family as a ticket
// opener: a gateway fronting this endpoint's fleet uses it to verify
// and inspect resumption tickets (session.InspectTicket) for routing
// without building a session. It is nil for static endpoints, which
// cannot resume.
func (ep *Endpoint) TicketOpener() session.TicketOpener {
	if ep.rot == nil {
		return nil
	}
	return ep.rot.View()
}

// ReplayCache exposes the endpoint's single-use ticket cache (nil
// unless WithTicketReplayWindow was given) so a gateway and its
// backends can share one replay scope.
func (ep *Endpoint) ReplayCache() *session.ReplayCache { return ep.replay }

// Trace returns a copy of the endpoint's buffered lifecycle events,
// oldest first — always the newest WithTrace(n) (or fewer) events, with
// strictly increasing sequence numbers. Nil when tracing is off.
func (ep *Endpoint) Trace() []TraceEvent { return ep.trace.Events() }

// TraceEnabled reports whether WithTrace turned event tracing on.
func (ep *Endpoint) TraceEnabled() bool { return ep.trace.Enabled() }

// Rotation exposes the endpoint's shared dialect family for inspection
// (cache introspection, direct Version access). It is nil for static
// endpoints. Its own Rekey/DropRekey act on the Rotation's default
// view, which no endpoint session reads; Bound re-sizes the cache every
// session shares.
func (ep *Endpoint) Rotation() *Rotation { return ep.rot }

// Listener accepts ready sessions of one Endpoint. It is a thin wrapper
// over the net.Listener it was created from, which remains reachable via
// Addr/Close semantics identical to net's.
type Listener struct {
	l    net.Listener
	ep   *Endpoint
	opts []SessionOption
}

// Accept waits for the next connection and returns a ready session over
// it. The session owns the accepted connection (Session.Close closes
// it). Errors from the underlying accept are returned as-is — a closed
// listener surfaces net.ErrClosed — while a session-construction failure
// on one connection closes that connection and is returned wrapped;
// accept loops that should survive a bad peer can check with
// errors.Is(err, ErrSessionSetup) and continue.
func (l *Listener) Accept() (*Session, error) {
	conn, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	s, err := l.ep.Session(conn, l.opts...)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %w", ErrSessionSetup, err)
	}
	return s, nil
}

// ErrSessionSetup wraps per-connection session construction failures
// surfaced by Listener.Accept, distinguishing them from listener-fatal
// accept errors.
var ErrSessionSetup = errors.New("protoobf: session setup failed")

// Close closes the underlying listener; blocked Accept calls return
// net.ErrClosed.
func (l *Listener) Close() error { return l.l.Close() }

// Addr returns the listener's network address.
func (l *Listener) Addr() net.Addr { return l.l.Addr() }
