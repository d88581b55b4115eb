// Deprecated constructors kept as thin wrappers over the Endpoint API.
//
// The pre-Endpoint public surface grew one constructor per deployment
// shape (NewSession, NewSessionWith, NewStaticSession, NewSessionPair,
// NewSessionPairWith, DialSession), and every session had to own its
// Rotation exclusively as soon as rekeying was involved. The Endpoint
// API replaces all of them — see docs/API.md for the migration map —
// and these wrappers remain only so existing callers keep compiling.
// cmd/deprecheck fails CI when non-deprecated code in this repository
// calls anything in this file.
package protoobf

import (
	"io"
	"net"

	"protoobf/internal/core"
	"protoobf/internal/session"
)

// SessionOptions configures the rotation control plane of a session
// built by the deprecated constructors. The zero value gives a manually
// rotated session with default bounds.
//
// Deprecated: use the functional options (WithSchedule, WithRekeyEvery,
// WithCacheWindow) with NewEndpoint / Endpoint.Session.
type SessionOptions struct {
	// Schedule, when non-nil, advances the session's epoch from
	// wall-clock time (see Schedule). Nil means epochs move only via
	// Rotate/Advance or by following the peer.
	Schedule *Schedule

	// RekeyEvery, when nonzero, proposes an in-band rekey — a fresh
	// master seed for the dialect family — every RekeyEvery epochs. A
	// rekeying session mutates its Rotation's default rekey view, so the
	// session must own the Rotation exclusively; the constructors
	// enforce this with ErrSharedRekey. Endpoint sessions rekey
	// independent views and have no such restriction.
	RekeyEvery uint64

	// CacheWindow bounds how many compiled dialect epochs the session
	// (and its Rotation) keeps: 0 means the defaults, negative means
	// unbounded. Evicted epochs recompile deterministically on demand,
	// so the window keeps long-lived sessions at O(window) memory.
	CacheWindow int
}

// NewSession opens a session over rw speaking the epoch-keyed dialect
// family of rot. Both peers must share the rotation's (spec, options).
//
// Deprecated: use NewEndpoint and Endpoint.Session. Sessions minted from
// one Endpoint share the compiled family safely, including rekeying.
func NewSession(rw io.ReadWriter, rot *Rotation) (*Session, error) {
	return NewSessionWith(rw, rot, SessionOptions{})
}

// NewSessionWith opens a session over rw with an explicit control-plane
// configuration: wall-clock scheduled rotation, periodic in-band
// rekeying, and a bounded dialect cache. A nonzero CacheWindow also
// re-bounds rot's compiled-version cache — only after the session is
// successfully created, so a failed construction leaves the caller's
// Rotation untouched. A nonzero RekeyEvery claims rot exclusively:
// sharing a rekey-enabled Rotation across sessions returns
// ErrSharedRekey instead of silently corrupting the seed family.
//
// Deprecated: use NewEndpoint and Endpoint.Session with WithSchedule /
// WithRekeyEvery / WithCacheWindow.
func NewSessionWith(rw io.ReadWriter, rot *Rotation, opts SessionOptions) (*Session, error) {
	rekey := opts.RekeyEvery != 0
	if err := rot.Attach(rekey); err != nil {
		return nil, err
	}
	s, err := session.NewConn(rw, rot, session.Options{
		Schedule:    opts.Schedule,
		RekeyEvery:  opts.RekeyEvery,
		CacheWindow: opts.CacheWindow,
	})
	if err != nil {
		rot.Detach(rekey)
		return nil, err
	}
	if opts.CacheWindow != 0 {
		rot.Bound(opts.CacheWindow)
	}
	return s, nil
}

// NewStaticSession opens a session over rw that speaks a single fixed
// protocol in every epoch (session framing without dialect rotation).
//
// Deprecated: use NewEndpoint with WithStaticProtocol, or pin one
// session of a rotating endpoint via Endpoint.Session(rw,
// WithStaticProtocol(p)).
func NewStaticSession(rw io.ReadWriter, p *Protocol) (*Session, error) {
	return session.NewConn(rw, session.Fixed(p.Graph), session.Options{})
}

// NewSessionPair connects two in-memory session peers, each compiled
// independently from the same (spec, options) — exactly how deployed
// peers agree on every epoch's dialect without coordination (§VIII).
//
// Deprecated: build two Endpoints from the same (spec, options) — one
// per simulated peer — and connect one session of each over Pipe().
func NewSessionPair(source string, opts Options) (*Session, *Session, error) {
	return NewSessionPairWith(source, opts, SessionOptions{})
}

// NewSessionPairWith is NewSessionPair with a control-plane
// configuration applied to both peers (each still owns an independent
// Rotation, as deployed peers would). The CacheWindow re-bound of each
// peer's Rotation happens only after both sessions construct
// successfully, so a failure leaves no half-configured state behind.
//
// Deprecated: build two Endpoints from the same (spec, options) with the
// equivalent functional options and connect one session of each over
// Pipe().
func NewSessionPairWith(source string, opts Options, sopts SessionOptions) (*Session, *Session, error) {
	a, err := core.NewRotation(source, opts)
	if err != nil {
		return nil, nil, err
	}
	b, err := core.NewRotation(source, opts)
	if err != nil {
		return nil, nil, err
	}
	o := session.Options{
		Schedule:    sopts.Schedule,
		RekeyEvery:  sopts.RekeyEvery,
		CacheWindow: sopts.CacheWindow,
	}
	x, y, err := session.Pair(a, b, o, o)
	if err != nil {
		return nil, nil, err
	}
	if sopts.CacheWindow != 0 {
		a.Bound(sopts.CacheWindow)
		b.Bound(sopts.CacheWindow)
	}
	return x, y, nil
}

// DialSession connects to addr over TCP and opens a session speaking
// rot's dialect family.
//
// Deprecated: use Endpoint.Dial, which compiles the family once per
// process instead of per caller-managed Rotation and returns a session
// that owns its connection.
func DialSession(addr string, rot *Rotation) (*Session, net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	s, err := NewSession(conn, rot)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return s, conn, nil
}
