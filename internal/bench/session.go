package bench

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"protoobf/internal/core"
	"protoobf/internal/msgtree"
	"protoobf/internal/session"
	"protoobf/internal/session/sched"
)

// sessionSpec is the message format of the scheduled-rotation workload:
// small telemetry-style messages, the shape the session hot path is
// optimized for.
const sessionSpec = `
protocol telemetry;
root seq msg end {
    uint  device 2;
    uint  seqno 4;
    uint  blen 2;
    seq body length(blen) {
        bytes status delim ";" min 1;
    }
    bytes sig end;
}
`

// SessionConfig parameterizes the scheduled-rotation session workload:
// two in-memory peers ping-pong messages while a fake wall clock drives
// the epoch schedule (and, optionally, periodic in-band rekeys), so the
// run measures the steady-state session throughput including dialect
// compiles at every rotation.
type SessionConfig struct {
	// Epochs is the number of scheduled rotations to cross (default 32).
	Epochs int
	// MsgsPerEpoch is the number of request/ack round trips per epoch
	// (default 64).
	MsgsPerEpoch int
	// RekeyEvery proposes an in-band rekey every N epochs (0 = never).
	RekeyEvery uint64
	// PerNode is the obfuscation level (default 2).
	PerNode int
	// Seed is the campaign seed.
	Seed int64
	// Window bounds the dialect caches (0 = session defaults).
	Window int
}

// SessionResult is the measured outcome of one session workload run.
type SessionResult struct {
	Config     SessionConfig
	Msgs       int           // round trips completed (2 messages each)
	Elapsed    time.Duration // wall time for the whole run
	MsgsPerSec float64       // messages (not round trips) per second
	Rekeys     int64         // rekey proposals drawn during the run
	CacheA     int           // compiled versions cached by peer A at the end
	CacheB     int           // same for peer B
}

// RunSession drives the scheduled-rotation workload. The context
// cancels the run cooperatively between round trips.
func RunSession(ctx context.Context, cfg SessionConfig) (*SessionResult, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 32
	}
	if cfg.MsgsPerEpoch <= 0 {
		cfg.MsgsPerEpoch = 64
	}
	if cfg.PerNode <= 0 {
		cfg.PerNode = 2
	}
	opts := core.ObfuscationOptions{PerNode: cfg.PerNode, Seed: cfg.Seed}
	rotA, err := core.NewRotation(sessionSpec, opts)
	if err != nil {
		return nil, err
	}
	rotB, err := core.NewRotation(sessionSpec, opts)
	if err != nil {
		return nil, err
	}
	if cfg.Window != 0 {
		rotA.Bound(cfg.Window)
		rotB.Bound(cfg.Window)
	}

	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	interval := time.Minute
	clock := sched.NewFakeClock(genesis)
	schedule := sched.New(genesis, interval).WithClock(clock.Now)

	// Deterministic rekey seeds; the counter doubles as the proposal
	// count. Both peers share the source, which is fine: proposals carry
	// the seed in-band and the tie-break resolves crossings.
	var rekeys atomic.Int64
	seedSource := func() (int64, error) { return 0x5EED0 + rekeys.Add(1), nil }

	o := session.Options{
		Schedule:    schedule,
		RekeyEvery:  cfg.RekeyEvery,
		CacheWindow: cfg.Window,
		SeedSource:  seedSource,
	}
	a, b, err := session.Pair(rotA, rotB, o, o)
	if err != nil {
		return nil, err
	}
	defer a.Release()
	defer b.Release()

	start := time.Now()
	trips := 0
	for e := 0; e < cfg.Epochs; e++ {
		for i := 0; i < cfg.MsgsPerEpoch; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := sessionTrip(a, b, uint64(trips)); err != nil {
				return nil, fmt.Errorf("epoch %d trip %d: %w", e, i, err)
			}
			trips++
		}
		clock.Advance(interval)
	}
	elapsed := time.Since(start)

	return &SessionResult{
		Config:     cfg,
		Msgs:       trips,
		Elapsed:    elapsed,
		MsgsPerSec: float64(2*trips) / elapsed.Seconds(),
		Rekeys:     rekeys.Load(),
		CacheA:     rotA.CacheLen(),
		CacheB:     rotB.CacheLen(),
	}, nil
}

// buildTelemetry composes one telemetry message under c's current
// dialect.
func buildTelemetry(c *session.Conn, device, seqno uint64, status string) (*msgtree.Message, error) {
	m, err := c.NewMessage()
	if err != nil {
		return nil, err
	}
	s := m.Scope()
	if err := s.SetUint("device", device); err != nil {
		return nil, err
	}
	if err := s.SetUint("seqno", seqno); err != nil {
		return nil, err
	}
	if err := s.SetString("status", status); err != nil {
		return nil, err
	}
	if err := s.SetBytes("sig", nil); err != nil {
		return nil, err
	}
	return m, nil
}

// sessionTrip sends one message A→B and an ack B→A.
func sessionTrip(a, b *session.Conn, seqno uint64) error {
	m, err := buildTelemetry(a, 42, seqno, "ok")
	if err != nil {
		return err
	}
	if err := a.Send(m); err != nil {
		return err
	}
	got, err := b.Recv()
	if err != nil {
		return err
	}
	v, err := got.Scope().GetUint("seqno")
	if err != nil {
		return err
	}
	if v != seqno {
		return fmt.Errorf("decoded seqno %d, want %d", v, seqno)
	}
	ack, err := buildTelemetry(b, 99, seqno, "ack")
	if err != nil {
		return err
	}
	if err := b.Send(ack); err != nil {
		return err
	}
	if _, err := a.Recv(); err != nil {
		return err
	}
	return nil
}

// Table renders the session workload result.
func (r *SessionResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scheduled-rotation session workload (perNode=%d, seed=%d)\n",
		r.Config.PerNode, r.Config.Seed)
	fmt.Fprintf(&sb, "  epochs crossed      %d\n", r.Config.Epochs)
	fmt.Fprintf(&sb, "  round trips         %d (%d messages)\n", r.Msgs, 2*r.Msgs)
	fmt.Fprintf(&sb, "  elapsed             %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  throughput          %.0f msgs/s (incl. dialect compiles at rotations)\n", r.MsgsPerSec)
	fmt.Fprintf(&sb, "  rekeys proposed     %d (RekeyEvery=%d)\n", r.Rekeys, r.Config.RekeyEvery)
	fmt.Fprintf(&sb, "  versions cached     A=%d B=%d (window=%d)\n", r.CacheA, r.CacheB, r.Config.Window)
	return sb.String()
}
