// Package adversary is the standing adversary harness of the
// evaluation: it attacks the session layer the way a network observer
// or an active man-in-the-middle would, and reports how well each
// attack works.
//
// Three attack surfaces are covered:
//
//   - Statistical distinguishers (Evaluate): frame-length distribution
//     tests, pooled byte-entropy and inter-frame timing over traffic
//     captured from a live Endpoint session pair, each reporting its
//     held-out classification accuracy at separating obfuscated from
//     plaintext traffic.
//   - Wire-level mutation fuzzing (RunMutations): bit flips, length-field
//     lies, truncation, kind-byte mutation, splices and reorders driven
//     through the session Recv path, asserting reject-versus-crash and
//     counting reject reasons.
//   - Covert-channel capacity (CovertCapacity): how many bits per epoch
//     the dialect choice itself could leak to an observer who can replay
//     a known message.
//
// All harness randomness is seeded (traffic, mutations, capture
// clocks), so the accuracies a run reports are comparable across
// commits — the BENCH trajectory emitted by protoobf-bench -adversary.
// The sessions under test seed their message randomness from
// crypto/rand, as deployed sessions do, so captured bytes, and the
// thresholds fitted to them, differ from run to run.
package adversary

import (
	"fmt"
	"io"
	"time"

	"protoobf"
	"protoobf/internal/frame"
	"protoobf/internal/rng"
	"protoobf/internal/session/sched"
)

// Spec is the message format the harness captures: telemetry-style
// messages (the shape of the bench gateway workload) with a
// variable-length status field, so frame lengths carry signal even
// before obfuscation.
const Spec = `
protocol advprobe;
root seq m end {
    uint  device 2;
    uint  seqno 4;
    uint  blen 2;
    seq body length(blen) {
        bytes status delim ";" min 1;
    }
    bytes sig end;
}
`

// Frame is one captured wire frame: the epoch-header fields plus the
// payload bytes and the capture-clock timestamp of the write that
// completed it.
type Frame struct {
	Kind    byte
	Epoch   uint64
	Payload []byte
	At      time.Time
}

// Trace is one direction of captured session traffic: the parsed frame
// sequence and the raw byte stream exactly as written.
type Trace struct {
	Frames []Frame
	Raw    []byte
}

// Tap observes one direction of a session's writes, reassembling the
// epoch-framed stream into Frames offline — the passive network
// observer's view. It implements io.Writer so it can sit between a
// session and its transport; now supplies the timestamp a frame is
// stamped with when its last byte is written.
type Tap struct {
	now     func() time.Time
	raw     []byte
	pending []byte
	frames  []Frame
}

// NewTap returns a tap stamping frames with now (nil means time.Now).
func NewTap(now func() time.Time) *Tap {
	if now == nil {
		now = time.Now
	}
	return &Tap{now: now}
}

// Write records p and parses any frames it completes. It never fails:
// the tap is an observer, not a participant.
func (t *Tap) Write(p []byte) (int, error) {
	t.raw = append(t.raw, p...)
	t.pending = append(t.pending, p...)
	for {
		if len(t.pending) < frame.EpochHeaderLen {
			return len(p), nil
		}
		kind, n, epoch, err := frame.DecodeHeader(t.pending[:frame.EpochHeaderLen])
		if err != nil {
			// Legit session traffic never produces an invalid header; stop
			// parsing rather than guess at resynchronization.
			return len(p), nil
		}
		if len(t.pending) < frame.EpochHeaderLen+n {
			return len(p), nil
		}
		payload := append([]byte(nil), t.pending[frame.EpochHeaderLen:frame.EpochHeaderLen+n]...)
		t.frames = append(t.frames, Frame{Kind: kind, Epoch: epoch, Payload: payload, At: t.now()})
		t.pending = t.pending[frame.EpochHeaderLen+n:]
	}
}

// Trace returns what the tap has seen so far.
func (t *Tap) Trace() *Trace {
	return &Trace{Frames: t.frames, Raw: t.raw}
}

// tapped routes a stream's writes through the tap on their way to the
// underlying pipe end.
type tapped struct {
	io.ReadWriter
	tap *Tap
}

func (t tapped) Write(p []byte) (int, error) {
	t.tap.Write(p)
	return t.ReadWriter.Write(p)
}

// CaptureConfig parameterizes one labeled traffic capture.
type CaptureConfig struct {
	// PerNode is the obfuscation level; 0 captures the plaintext
	// baseline the distinguishers are trained against.
	PerNode int
	// Seed is the dialect-family seed.
	Seed int64
	// TrafficSeed seeds the message contents, independently of the
	// family: two captures with the same TrafficSeed carry the same
	// application payloads under different dialects.
	TrafficSeed int64
	// Msgs is the number of client-to-server messages (default 256).
	Msgs int
	// Epochs is the number of scheduled dialect rotations the capture
	// spans (default 4), so the trace mixes dialects like long-lived
	// traffic does.
	Epochs int
	// Gap returns the capture-clock delay before message i (default a
	// constant 1ms). The distinguishers only ever see these synthetic
	// timestamps, which keeps the timing test deterministic.
	Gap func(i int) time.Duration
	// Shape, when non-nil, shapes both peers with the profile — length
	// morphing, MTU splitting and departure pacing, all on the capture
	// clock (the shaper's sleeps advance it), so shaped captures stay
	// exactly as deterministic as unshaped ones. This is the
	// countermeasure the distinguisher gate evaluates. Stream captures
	// only.
	Shape *protoobf.ShapeProfile
	// Datagram captures packet-session traffic instead of stream
	// traffic: one packet per frame, tapped at packet granularity (the
	// datagram observer's natural view).
	Datagram bool
	// ZeroOverhead selects zero-overhead data packets for a datagram
	// capture — what the observer sees when even the framing header is
	// gone. Ignored for stream captures.
	ZeroOverhead bool
}

// Capture runs a live Endpoint session pair over an in-memory duplex,
// drives cfg.Msgs telemetry messages client-to-server across cfg.Epochs
// scheduled rotations, and returns the client's wire traffic as seen by
// a tap on its transport.
func Capture(cfg CaptureConfig) (*Trace, error) {
	if cfg.Msgs <= 0 {
		cfg.Msgs = 256
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 4
	}
	if cfg.Gap == nil {
		cfg.Gap = func(int) time.Duration { return time.Millisecond }
	}
	if cfg.Datagram {
		if cfg.Shape != nil {
			return nil, fmt.Errorf("adversary: shaping is a stream-session countermeasure; datagram captures cannot shape")
		}
		return captureDatagram(cfg)
	}

	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := sched.NewFakeClock(genesis)
	schedule := sched.New(genesis, time.Minute).WithClock(clock.Now)

	// The adversary's clock: advanced by Gap before every send — and by
	// the shaper's pacing sleeps, when shaping is on — read by the tap
	// when a frame completes.
	now := genesis
	tap := NewTap(func() time.Time { return now })

	epOpts := []protoobf.EndpointOption{protoobf.WithSchedule(schedule)}
	if cfg.Shape != nil {
		epOpts = append(epOpts,
			protoobf.WithShaping(*cfg.Shape),
			protoobf.WithShapeClock(
				func() time.Time { return now },
				func(d time.Duration) { now = now.Add(d) },
			))
	}
	opts := protoobf.Options{PerNode: cfg.PerNode, Seed: cfg.Seed}
	epCli, err := protoobf.NewEndpoint(Spec, opts, epOpts...)
	if err != nil {
		return nil, err
	}
	epSrv, err := protoobf.NewEndpoint(Spec, opts, epOpts...)
	if err != nil {
		return nil, err
	}

	ca, cb := protoobf.Pipe()
	cli, err := epCli.Session(tapped{ReadWriter: ca, tap: tap})
	if err != nil {
		return nil, err
	}
	defer cli.Release()
	srv, err := epSrv.Session(cb)
	if err != nil {
		return nil, err
	}
	defer srv.Release()

	r := rng.New(cfg.TrafficSeed)
	perEpoch := cfg.Msgs / cfg.Epochs
	if perEpoch == 0 {
		perEpoch = 1
	}
	for i := 0; i < cfg.Msgs; i++ {
		now = now.Add(cfg.Gap(i))
		m, err := cli.NewMessage()
		if err != nil {
			return nil, err
		}
		s := m.Scope()
		if err := s.SetUint("device", uint64(r.Intn(1<<8))); err != nil {
			return nil, err
		}
		if err := s.SetUint("seqno", uint64(i)); err != nil {
			return nil, err
		}
		if err := s.SetBytes("status", statusBytes(r)); err != nil {
			return nil, err
		}
		if err := s.SetBytes("sig", nil); err != nil {
			return nil, err
		}
		if err := cli.Send(m); err != nil {
			return nil, fmt.Errorf("adversary: capture send %d: %w", i, err)
		}
		if _, err := srv.Recv(); err != nil {
			return nil, fmt.Errorf("adversary: capture recv %d: %w", i, err)
		}
		if (i+1)%perEpoch == 0 {
			clock.Advance(time.Minute)
		}
	}
	return tap.Trace(), nil
}

// statusBytes builds a variable-length, low-entropy status value — the
// structured plaintext shape (think text protocols) a byte-level
// distinguisher feeds on. Obfuscating transformations disperse these
// concentrated byte frequencies; the plaintext keeps them.
func statusBytes(r *rng.R) []byte {
	n := 1 + r.Intn(24)
	b := make([]byte, n)
	const alphabet = "ab"
	for i := range b {
		b[i] = alphabet[i%len(alphabet)]
	}
	return b
}
