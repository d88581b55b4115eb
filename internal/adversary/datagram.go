package adversary

import (
	"fmt"
	"io"
	"time"

	"protoobf"
	"protoobf/internal/core"
	"protoobf/internal/frame"
	"protoobf/internal/metrics"
	"protoobf/internal/rng"
	"protoobf/internal/session/dgram"
	"protoobf/internal/session/sched"
)

// Datagram attack surface: the same adversary, pointed at the packet
// session layer. Captures tap whole packets (the datagram observer sees
// packet boundaries for free — no stream reassembly), and the mutation
// campaign feeds mutilated packets through Decode one at a time,
// because on a datagram transport every packet must stand alone: a
// mutation can cost at most the packet it touches.

// PacketTap observes one direction of packet traffic: every Write is
// one packet and becomes one Frame. In normal mode the epoch header is
// parsed into Kind/Epoch; in zero-overhead mode there is no readable
// header — exactly the observer's problem — so frames carry the raw
// packet with Kind 0xFF and Epoch 0.
type PacketTap struct {
	now          func() time.Time
	zeroOverhead bool
	raw          []byte
	frames       []Frame
}

// NewPacketTap returns a packet tap stamping frames with now (nil means
// time.Now).
func NewPacketTap(now func() time.Time, zeroOverhead bool) *PacketTap {
	if now == nil {
		now = time.Now
	}
	return &PacketTap{now: now, zeroOverhead: zeroOverhead}
}

// Write records one packet. It never fails: the tap is an observer.
func (t *PacketTap) Write(p []byte) (int, error) {
	t.raw = append(t.raw, p...)
	fr := Frame{Kind: 0xFF, Payload: append([]byte(nil), p...), At: t.now()}
	if !t.zeroOverhead && len(p) >= frame.EpochHeaderLen {
		if kind, _, epoch, err := frame.DecodeHeader(p[:frame.EpochHeaderLen]); err == nil {
			fr.Kind, fr.Epoch = kind, epoch
		}
	}
	t.frames = append(t.frames, fr)
	return len(p), nil
}

// Trace returns what the tap has seen so far.
func (t *PacketTap) Trace() *Trace {
	return &Trace{Frames: t.frames, Raw: t.raw}
}

// tappedPacket routes a packet transport's writes through the tap.
type tappedPacket struct {
	io.ReadWriter
	tap *PacketTap
}

func (t tappedPacket) Write(p []byte) (int, error) {
	t.tap.Write(p)
	return t.ReadWriter.Write(p)
}

// captureDatagram is Capture's packet-transport leg: a PacketSession
// pair over the in-memory packet pair, the client's transport tapped,
// the same telemetry workload and scheduled rotations.
func captureDatagram(cfg CaptureConfig) (*Trace, error) {
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := sched.NewFakeClock(genesis)
	schedule := sched.New(genesis, time.Minute).WithClock(clock.Now)

	now := genesis
	tap := NewPacketTap(func() time.Time { return now }, cfg.ZeroOverhead)

	opts := protoobf.Options{PerNode: cfg.PerNode, Seed: cfg.Seed}
	epOpts := []protoobf.EndpointOption{protoobf.WithSchedule(schedule)}
	epCli, err := protoobf.NewEndpoint(Spec, opts, epOpts...)
	if err != nil {
		return nil, err
	}
	epSrv, err := protoobf.NewEndpoint(Spec, opts, epOpts...)
	if err != nil {
		return nil, err
	}

	var sessOpts []protoobf.SessionOption
	if cfg.ZeroOverhead {
		sessOpts = append(sessOpts, protoobf.WithZeroOverhead(true))
	}
	ca, cb := protoobf.PacketPipe()
	cli, err := epCli.PacketSession(tappedPacket{ReadWriter: ca, tap: tap}, sessOpts...)
	if err != nil {
		return nil, err
	}
	defer cli.Release()
	srv, err := epSrv.PacketSession(cb, sessOpts...)
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
		if err := SetTelemetry(m, uint64(r.Intn(1<<8)), uint64(i), StatusBytes(r)); err != nil {
			return nil, err
		}
		if err := cli.Send(m); err != nil {
			return nil, fmt.Errorf("adversary: datagram capture send %d: %w", i, err)
		}
		if _, err := srv.Recv(); err != nil {
			return nil, fmt.Errorf("adversary: datagram capture recv %d: %w", i, err)
		}
		if (i+1)%perEpoch == 0 {
			clock.Advance(time.Minute)
		}
	}
	return tap.Trace(), nil
}

// DatagramStrategies names the packet mutation strategies, in campaign
// order. Loss, duplication and reordering are legitimate datagram
// weather, so unlike the stream campaign they must cost at most the
// packets they touch, never the session.
var DatagramStrategies = []string{"bitflip", "lenlie", "truncate", "kindbyte", "reorder", "dup", "drop", "splice"}

// MutateDatagram applies one named strategy to a copy of the baseline
// packets. Unknown strategies return the packets unmodified.
func MutateDatagram(pkts [][]byte, strategy string, r *rng.R) [][]byte {
	cp := make([][]byte, len(pkts))
	for i, p := range pkts {
		cp[i] = append([]byte(nil), p...)
	}
	switch strategy {
	case "bitflip":
		p := cp[r.Intn(len(cp))]
		p[r.Intn(len(p))] ^= 1 << r.Intn(8)
	case "lenlie":
		// Rewrite the leading length word. In normal mode that is the
		// header lying about the payload; in zero-overhead mode it is
		// just a 3-byte corruption of masked payload.
		p := cp[r.Intn(len(cp))]
		if len(p) >= 4 {
			lie := r.Intn(frame.MaxFrame + 2)
			p[1], p[2], p[3] = byte(lie>>16), byte(lie>>8), byte(lie)
		}
	case "truncate":
		i := r.Intn(len(cp))
		cp[i] = cp[i][:r.Intn(len(cp[i]))]
	case "kindbyte":
		cp[r.Intn(len(cp))][0] = byte(r.Intn(256))
	case "reorder":
		i, j := r.Intn(len(cp)), r.Intn(len(cp))
		cp[i], cp[j] = cp[j], cp[i]
	case "dup":
		i := r.Intn(len(cp))
		at := r.Intn(len(cp) + 1)
		d := append([]byte(nil), cp[i]...)
		rest := append([][]byte{d}, cp[at:]...)
		cp = append(cp[:at:at], rest...)
	case "drop":
		i := r.Intn(len(cp))
		cp = append(cp[:i:i], cp[i+1:]...)
	case "splice":
		// A wholly foreign packet: random bytes of plausible size.
		at := r.Intn(len(cp) + 1)
		garbage := r.Bytes(1 + r.Intn(256))
		rest := append([][]byte{garbage}, cp[at:]...)
		cp = append(cp[:at:at], rest...)
	}
	return cp
}

// DatagramMutationResult tallies the packet campaign: per-packet
// outcomes rather than per-stream, because datagram damage is local by
// design.
type DatagramMutationResult struct {
	Cases    int            `json:"cases"`
	Packets  int            `json:"packets"`
	Crashes  int            `json:"crashes"`
	Decoded  int            `json:"decoded"`
	Controls int            `json:"controls"`
	Rejects  map[string]int `json:"rejects"`
}

// Rejected is the total count of cleanly rejected packets.
func (r *DatagramMutationResult) Rejected() int {
	n := 0
	for _, v := range r.Rejects {
		n += v
	}
	return n
}

// RunDatagramMutations builds a pristine packet sequence from a live
// packet sender, then feeds deterministically mutated copies through a
// fresh receiver's Decode path packet by packet, classifying every
// packet's outcome. Both modes are attacked: zeroOverhead selects the
// wire format under test.
func RunDatagramMutations(cfg MutationConfig, zeroOverhead bool) (*DatagramMutationResult, error) {
	if cfg.PerNode <= 0 {
		cfg.PerNode = 2
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 12
	}
	if cfg.Cases <= 0 {
		cfg.Cases = 48
	}
	opts := core.ObfuscationOptions{PerNode: cfg.PerNode, Seed: cfg.Seed}
	rotTx, err := core.NewRotation(Spec, opts)
	if err != nil {
		return nil, err
	}
	rotRx, err := core.NewRotation(Spec, opts)
	if err != nil {
		return nil, err
	}
	pkts, err := baselinePackets(rotTx, cfg.Frames, cfg.Seed, zeroOverhead)
	if err != nil {
		return nil, err
	}

	res := &DatagramMutationResult{Rejects: map[string]int{}}
	r := rng.New(cfg.Seed ^ 0x5ADBEEF)
	for _, strategy := range DatagramStrategies {
		for c := 0; c < cfg.Cases; c++ {
			mutated := MutateDatagram(pkts, strategy, r)
			if err := feedPackets(rotRx, mutated, zeroOverhead, res); err != nil {
				return nil, err
			}
			res.Cases++
		}
	}
	return res, nil
}

// nullTransport satisfies the packet session's transport contract for a
// receiver that is only ever hand-fed packets via Decode.
type nullTransport struct{}

func (nullTransport) Read(p []byte) (int, error)  { return 0, io.EOF }
func (nullTransport) Write(p []byte) (int, error) { return len(p), nil }

// baselinePackets sends n telemetry messages through a real packet
// session, capturing each packet as written.
func baselinePackets(rot *core.Rotation, n int, seed int64, zeroOverhead bool) ([][]byte, error) {
	var cap packetCapture
	tx, err := dgram.NewConn(&cap, rot.View(), dgram.Options{ZeroOverhead: zeroOverhead})
	if err != nil {
		return nil, err
	}
	defer tx.Release()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		m, err := tx.NewMessage()
		if err != nil {
			return nil, err
		}
		if err := SetTelemetry(m, uint64(r.Intn(1<<8)), uint64(i), StatusBytes(r)); err != nil {
			return nil, err
		}
		if err := tx.Send(m); err != nil {
			return nil, err
		}
	}
	return cap.pkts, nil
}

// packetCapture records written packets; reads report EOF.
type packetCapture struct{ pkts [][]byte }

func (c *packetCapture) Write(p []byte) (int, error) {
	c.pkts = append(c.pkts, append([]byte(nil), p...))
	return len(p), nil
}
func (c *packetCapture) Read(p []byte) (int, error) { return 0, io.EOF }

// feedPackets drives one mutated packet sequence through a fresh
// receiver's Decode, packet by packet, tallying outcomes into res. A
// panic anywhere under Decode is the crash the campaign rules out.
func feedPackets(rot *core.Rotation, pkts [][]byte, zeroOverhead bool, res *DatagramMutationResult) (err error) {
	var stats metrics.DgramCounters
	rx, err := dgram.NewConn(nullTransport{}, rot.View(), dgram.Options{
		ZeroOverhead: zeroOverhead,
		Stats:        &stats,
	})
	if err != nil {
		return err
	}
	defer rx.Release()
	for _, pkt := range pkts {
		res.Packets++
		before := stats.Snapshot()
		m, crashed := decodeOne(rx, pkt)
		if crashed {
			res.Crashes++
			continue
		}
		after := stats.Snapshot()
		switch {
		case m != nil:
			res.Decoded++
		case after.Rejects() > before.Rejects():
			res.Rejects[rejectBucket(before, after)]++
		default:
			// Handled control packet (cover discard, rekey apply/dup).
			res.Controls++
		}
	}
	return nil
}

// decodeOne isolates one Decode behind a recover, so a panic is
// classified instead of killing the campaign.
func decodeOne(rx *dgram.Conn, pkt []byte) (m any, crashed bool) {
	defer func() {
		if p := recover(); p != nil {
			m, crashed = nil, true
		}
	}()
	got, _ := rx.Decode(append([]byte(nil), pkt...))
	if got == nil {
		return nil, false
	}
	return got, false
}

// rejectBucket names the reject reason that fired between two
// snapshots.
func rejectBucket(before, after metrics.DgramStats) string {
	switch {
	case after.RejectedStale > before.RejectedStale:
		return "stale"
	case after.RejectedFuture > before.RejectedFuture:
		return "future"
	case after.RejectedMalformed > before.RejectedMalformed:
		return "malformed"
	default:
		return "parse"
	}
}
