package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"protoobf"
	"protoobf/internal/adversary"
	"protoobf/internal/core"
	"protoobf/internal/metrics"
	"protoobf/internal/rng"
	"protoobf/internal/session/dgram"
)

// DatagramConfig parameterizes the packet-session workload: lossy-link
// soaks in both wire modes, the batch fast path, a loopback-UDP
// exchange, the datagram distinguisher panel and the packet mutation
// campaign — the datagram analogue of the standing adversary run.
type DatagramConfig struct {
	// Seed drives the family, the traffic and the loss pattern.
	Seed int64
	// PerNode is the obfuscation level (default 2).
	PerNode int
	// Msgs is the message count per lossy leg (default 400).
	Msgs int
	// LossPct, DupPct and ReorderPct configure the injected mutilation
	// (defaults 5, 3 and 10 — the acceptance point the loss-tolerance
	// claim is staked on).
	LossPct, DupPct, ReorderPct int
	// Window is the distinguisher window in frames (default 16).
	Window int
	// MutationCases is the mutated packet streams per strategy
	// (default 48).
	MutationCases int
	// RekeyEvery proposes an in-band rekey every N messages on the
	// lossy legs (default Msgs/4).
	RekeyEvery int
}

// DatagramLeg is one transport leg of the workload: who carried the
// packets, in which wire mode, and what survived.
type DatagramLeg struct {
	// Transport names the leg: lossy-pipe, pipe-batch or udp.
	Transport string `json:"transport"`
	// ZeroOverhead is the wire mode the leg ran in.
	ZeroOverhead bool `json:"zero_overhead"`
	// Sent and Decoded are data packets written and data packets that
	// decoded on the far side; Crashes counts receiver panics (the
	// number the whole workload exists to keep at zero).
	Sent    int `json:"sent"`
	Decoded int `json:"decoded"`
	Crashes int `json:"crashes"`
	// Dropped, Duped and Reordered are what the lossy wrapper actually
	// did to the leg's packets (zero on clean transports).
	Dropped   int `json:"dropped"`
	Duped     int `json:"duped"`
	Reordered int `json:"reordered"`
	// RekeysApplied, RekeyDups and CoversDropped are the receiver's
	// control-plane tallies: boundaries switched, redundant copies
	// discarded as idempotent, chaff discarded.
	RekeysApplied uint64 `json:"rekeys_applied"`
	RekeyDups     uint64 `json:"rekey_dups"`
	CoversDropped uint64 `json:"covers_dropped"`
	// DataOverheadBytes is the sender's framing bytes on data packets:
	// wire bytes minus payload bytes, 12 per packet in normal mode and
	// exactly 0 in zero-overhead mode. The report carries the measured
	// number, not the claim.
	DataOverheadBytes uint64 `json:"data_overhead_bytes"`
	// Rejects breaks down the receiver's counted drops by reason.
	Rejects map[string]uint64 `json:"rejects,omitempty"`
}

// DeliveredPct is the fraction of sent data packets that decoded, in
// percent. Duplication can push it past 100 on a clean link.
func (l *DatagramLeg) DeliveredPct() float64 {
	if l.Sent == 0 {
		return 0
	}
	return 100 * float64(l.Decoded) / float64(l.Sent)
}

// DatagramReport is the machine-readable outcome of one datagram
// workload — the packet-session section of the BENCH trajectory.
type DatagramReport struct {
	Msgs       int `json:"msgs"`
	LossPct    int `json:"loss_pct"`
	DupPct     int `json:"dup_pct"`
	ReorderPct int `json:"reorder_pct"`
	// Legs holds every transport×mode combination the workload drove.
	Legs []DatagramLeg `json:"legs"`
	// Distinguishers is the held-out panel over normal-mode packet
	// captures; ZeroOverheadDistinguishers the same panel when even
	// the framing header is gone from the wire.
	Distinguishers             []adversary.Accuracy `json:"distinguishers"`
	ZeroOverheadDistinguishers []adversary.Accuracy `json:"zero_overhead_distinguishers"`
	// Mutation and ZeroOverheadMutation are the packet mutation
	// campaigns per wire mode.
	Mutation             adversary.DatagramMutationResult `json:"mutation"`
	ZeroOverheadMutation adversary.DatagramMutationResult `json:"zero_overhead_mutation"`
}

// Crashes totals receiver panics across every leg and both mutation
// campaigns — the workload's pass/fail number.
func (r *DatagramReport) Crashes() int {
	n := r.Mutation.Crashes + r.ZeroOverheadMutation.Crashes
	for _, l := range r.Legs {
		n += l.Crashes
	}
	return n
}

// ZeroOverheadViolations returns the zero-overhead legs whose senders
// measured nonzero framing bytes on data packets — empty when the
// mode's claim holds.
func (r *DatagramReport) ZeroOverheadViolations() []DatagramLeg {
	var bad []DatagramLeg
	for _, l := range r.Legs {
		if l.ZeroOverhead && l.DataOverheadBytes != 0 {
			bad = append(bad, l)
		}
	}
	return bad
}

// DatagramResult pairs the resolved configuration with the report.
type DatagramResult struct {
	Config DatagramConfig
	Report DatagramReport
}

// RunDatagram executes the datagram workload.
func RunDatagram(ctx context.Context, cfg DatagramConfig) (*DatagramResult, error) {
	if cfg.PerNode <= 0 {
		cfg.PerNode = 2
	}
	if cfg.Msgs <= 0 {
		cfg.Msgs = 400
	}
	if cfg.LossPct <= 0 {
		cfg.LossPct = 5
	}
	if cfg.DupPct <= 0 {
		cfg.DupPct = 3
	}
	if cfg.ReorderPct <= 0 {
		cfg.ReorderPct = 10
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.MutationCases <= 0 {
		cfg.MutationCases = 48
	}
	if cfg.RekeyEvery <= 0 {
		cfg.RekeyEvery = cfg.Msgs / 4
		if cfg.RekeyEvery == 0 {
			cfg.RekeyEvery = 1
		}
	}

	rep := DatagramReport{
		Msgs: cfg.Msgs, LossPct: cfg.LossPct, DupPct: cfg.DupPct, ReorderPct: cfg.ReorderPct,
	}
	for _, zo := range []bool{false, true} {
		leg, err := runDatagramLossyLeg(ctx, cfg, zo)
		if err != nil {
			return nil, fmt.Errorf("bench: datagram lossy leg (zo=%v): %w", zo, err)
		}
		rep.Legs = append(rep.Legs, leg)
		bleg, err := runDatagramBatchLeg(ctx, cfg, zo)
		if err != nil {
			return nil, fmt.Errorf("bench: datagram batch leg (zo=%v): %w", zo, err)
		}
		rep.Legs = append(rep.Legs, bleg)
		uleg, err := runDatagramUDPLeg(ctx, cfg, zo)
		if err != nil {
			return nil, fmt.Errorf("bench: datagram udp leg (zo=%v): %w", zo, err)
		}
		rep.Legs = append(rep.Legs, uleg)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Distinguisher panel over packet captures: the plaintext baseline
	// keeps its headers (a plaintext datagram protocol hides nothing);
	// the obfuscated capture is taken per wire mode.
	plain, err := adversary.Capture(adversary.CaptureConfig{
		PerNode: 0, Seed: cfg.Seed, TrafficSeed: cfg.Seed + 1, Datagram: true,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: datagram plaintext capture: %w", err)
	}
	obf, err := adversary.Capture(adversary.CaptureConfig{
		PerNode: cfg.PerNode, Seed: cfg.Seed, TrafficSeed: cfg.Seed + 1, Datagram: true,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: datagram obfuscated capture: %w", err)
	}
	rep.Distinguishers = adversary.Evaluate(plain, obf, cfg.Window)
	zobf, err := adversary.Capture(adversary.CaptureConfig{
		PerNode: cfg.PerNode, Seed: cfg.Seed, TrafficSeed: cfg.Seed + 1,
		Datagram: true, ZeroOverhead: true,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: zero-overhead capture: %w", err)
	}
	rep.ZeroOverheadDistinguishers = adversary.Evaluate(plain, zobf, cfg.Window)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, zo := range []bool{false, true} {
		mut, err := adversary.RunDatagramMutations(adversary.MutationConfig{
			PerNode: cfg.PerNode, Seed: cfg.Seed, Cases: cfg.MutationCases,
		}, zo)
		if err != nil {
			return nil, fmt.Errorf("bench: datagram mutation campaign (zo=%v): %w", zo, err)
		}
		if zo {
			rep.ZeroOverheadMutation = *mut
		} else {
			rep.Mutation = *mut
		}
	}
	return &DatagramResult{Config: cfg, Report: rep}, nil
}

// dgramRotationPair builds the two rotation views of one family.
func dgramRotationPair(cfg DatagramConfig) (a, b *core.Rotation, err error) {
	opts := core.ObfuscationOptions{PerNode: cfg.PerNode, Seed: cfg.Seed}
	if a, err = core.NewRotation(adversary.Spec, opts); err != nil {
		return nil, nil, err
	}
	if b, err = core.NewRotation(adversary.Spec, opts); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// sendDgramMsg builds and sends one telemetry message on c.
func sendDgramMsg(c *dgram.Conn, i int, r *rng.R) error {
	m, err := c.NewMessage()
	if err != nil {
		return err
	}
	if err := adversary.SetTelemetry(m, uint64(r.Intn(1<<8)), uint64(i), adversary.StatusBytes(r)); err != nil {
		return err
	}
	return c.Send(m)
}

// recvGuard performs one Recv, converting a panic into a counted crash
// instead of killing the workload.
func recvGuard(c *dgram.Conn) (m interface{}, err error, crashed bool) {
	defer func() {
		if p := recover(); p != nil {
			crashed = true
			err = fmt.Errorf("bench: recv panicked: %v", p)
		}
	}()
	m, err = c.Recv()
	return m, err, false
}

// drainDgram pulls decoded messages until the transport EOFs, counting
// panics rather than propagating them.
func drainDgram(c *dgram.Conn) (decoded, crashes int) {
	for {
		m, err, crashed := recvGuard(c)
		if crashed {
			crashes++
			continue
		}
		if err != nil {
			return decoded, crashes
		}
		if m != nil {
			decoded++
		}
	}
}

// legFromStats folds the sender's and receiver's counters into a leg.
func legFromStats(transport string, zo bool, sa, sb metrics.DgramStats, decoded, crashes int) DatagramLeg {
	leg := DatagramLeg{
		Transport:         transport,
		ZeroOverhead:      zo,
		Sent:              int(sa.DataSent),
		Decoded:           decoded,
		Crashes:           crashes,
		RekeysApplied:     sb.RekeysApplied,
		RekeyDups:         sb.RekeyDups,
		CoversDropped:     sb.CoverDropped,
		DataOverheadBytes: sa.OverheadBytes(),
	}
	if rej := sb.Rejects(); rej > 0 {
		leg.Rejects = map[string]uint64{}
		for reason, n := range map[string]uint64{
			"stale": sb.RejectedStale, "future": sb.RejectedFuture,
			"parse": sb.RejectedParse, "malformed": sb.RejectedMalformed,
		} {
			if n > 0 {
				leg.Rejects[reason] = n
			}
		}
	}
	return leg
}

// runDatagramLossyLeg soaks one wire mode through the seeded lossy
// link: loss, duplication and adjacent reordering, with periodic rekey
// bursts and cover chaff mixed in.
func runDatagramLossyLeg(ctx context.Context, cfg DatagramConfig, zo bool) (DatagramLeg, error) {
	var leg DatagramLeg
	rotA, rotB, err := dgramRotationPair(cfg)
	if err != nil {
		return leg, err
	}
	pa, pb := dgram.NewPair()
	lossy := dgram.NewLossy(pa, dgram.LossyConfig{
		LossPct: cfg.LossPct, DupPct: cfg.DupPct, ReorderPct: cfg.ReorderPct, Seed: cfg.Seed + 7,
	})
	var sa, sb metrics.DgramCounters
	a, err := dgram.NewConn(lossy, rotA.View(), dgram.Options{ZeroOverhead: zo, Stats: &sa})
	if err != nil {
		return leg, err
	}
	defer a.Release()
	b, err := dgram.NewConn(pb, rotB.View(), dgram.Options{ZeroOverhead: zo, Stats: &sb})
	if err != nil {
		return leg, err
	}
	defer b.Release()

	r := rng.New(cfg.Seed + 3)
	for i := 0; i < cfg.Msgs; i++ {
		if i > 0 && i%cfg.RekeyEvery == 0 {
			if _, err := a.Rekey(cfg.Seed + int64(i)); err != nil {
				return leg, err
			}
		}
		if i%37 == 0 {
			if err := a.SendCover(); err != nil {
				return leg, err
			}
		}
		if err := sendDgramMsg(a, i, r); err != nil {
			return leg, err
		}
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return leg, err
			}
		}
	}
	lossy.Close()
	decoded, crashes := drainDgram(b)
	leg = legFromStats("lossy-pipe", zo, sa.Snapshot(), sb.Snapshot(), decoded, crashes)
	leg.Dropped, leg.Duped, leg.Reordered = lossy.Dropped, lossy.Duped, lossy.Reordered
	if leg.Decoded == 0 {
		return leg, fmt.Errorf("lossy leg decoded nothing of %d sent", leg.Sent)
	}
	return leg, nil
}

// runDatagramBatchLeg drives the SendBatch/RecvBatch fast paths over
// the clean in-memory pair — the amortized hot path's trajectory
// number.
func runDatagramBatchLeg(ctx context.Context, cfg DatagramConfig, zo bool) (DatagramLeg, error) {
	var leg DatagramLeg
	rotA, rotB, err := dgramRotationPair(cfg)
	if err != nil {
		return leg, err
	}
	pa, pb := dgram.NewPair()
	var sa, sb metrics.DgramCounters
	a, err := dgram.NewConn(pa, rotA.View(), dgram.Options{ZeroOverhead: zo, Stats: &sa})
	if err != nil {
		return leg, err
	}
	defer a.Release()
	b, err := dgram.NewConn(pb, rotB.View(), dgram.Options{ZeroOverhead: zo, Stats: &sb})
	if err != nil {
		return leg, err
	}
	defer b.Release()

	const batch = 32
	r := rng.New(cfg.Seed + 5)
	msgs := cfg.Msgs
	decoded, crashes := 0, 0
	for sent := 0; sent < msgs; {
		n := batch
		if msgs-sent < n {
			n = msgs - sent
		}
		ms := make([]*protoobf.Message, 0, n)
		for i := 0; i < n; i++ {
			m, err := a.NewMessage()
			if err != nil {
				return leg, err
			}
			if err := adversary.SetTelemetry(m, 1, uint64(sent+i), []byte{byte('a' + r.Intn(2))}); err != nil {
				return leg, err
			}
			ms = append(ms, m)
		}
		if err := a.SendBatch(ms); err != nil {
			return leg, err
		}
		sent += n
		for decoded < sent {
			got, err := b.RecvBatch(batch)
			if err != nil {
				return leg, err
			}
			decoded += len(got)
		}
		if err := ctx.Err(); err != nil {
			return leg, err
		}
	}
	leg = legFromStats("pipe-batch", zo, sa.Snapshot(), sb.Snapshot(), decoded, crashes)
	if leg.Decoded != leg.Sent {
		return leg, fmt.Errorf("batch leg lost packets on a clean pair: %d of %d decoded", leg.Decoded, leg.Sent)
	}
	return leg, nil
}

// runDatagramUDPLeg crosses a real loopback socket through the public
// endpoint surface: DialPacket client, ListenPacket demux server, a
// synchronous echo per message. A watchdog closes both ends if the
// kernel drops a loopback packet, ending the leg early instead of
// hanging the bench.
func runDatagramUDPLeg(ctx context.Context, cfg DatagramConfig, zo bool) (DatagramLeg, error) {
	var leg DatagramLeg
	opts := protoobf.Options{PerNode: cfg.PerNode, Seed: cfg.Seed}
	epA, err := protoobf.NewEndpoint(adversary.Spec, opts)
	if err != nil {
		return leg, err
	}
	epB, err := protoobf.NewEndpoint(adversary.Spec, opts)
	if err != nil {
		return leg, err
	}
	ln, err := epB.ListenPacket("udp", "127.0.0.1:0", protoobf.WithZeroOverhead(zo))
	if err != nil {
		return leg, err
	}
	defer ln.Close()
	client, err := epA.DialPacket(ctx, "udp", ln.Addr().String(), protoobf.WithZeroOverhead(zo))
	if err != nil {
		return leg, err
	}
	defer client.Close()

	msgs := cfg.Msgs / 4
	if msgs == 0 {
		msgs = 1
	}
	watchdog := time.AfterFunc(30*time.Second, func() {
		client.Close()
		ln.Close()
	})
	defer watchdog.Stop()

	r := rng.New(cfg.Seed + 9)
	decoded, crashes := 0, 0
	var server *protoobf.PacketSession
	for i := 0; i < msgs; i++ {
		if err := sendDgramMsg(client, i, r); err != nil {
			break
		}
		if server == nil {
			if server, err = ln.Accept(); err != nil {
				return leg, err
			}
			defer server.Release()
		}
		m, err, crashed := recvGuard(server)
		if crashed {
			crashes++
			continue
		}
		if err != nil {
			break // watchdog fired or socket died; report what survived
		}
		if m != nil {
			decoded++
		}
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return leg, err
			}
		}
	}
	leg = legFromStats("udp", zo, epA.Metrics().Dgram, epB.Metrics().Dgram, decoded, crashes)
	if leg.Decoded == 0 {
		return leg, fmt.Errorf("udp leg decoded nothing of %d sent", leg.Sent)
	}
	return leg, nil
}

// Table renders the human-readable summary the CLI prints alongside
// the JSON file.
func (r *DatagramResult) Table() string {
	var sb strings.Builder
	rep := &r.Report
	fmt.Fprintf(&sb, "DATAGRAM — packet-session workload (msgs=%d, loss=%d%% dup=%d%% reorder=%d%%, perNode=%d, seed=%d)\n",
		rep.Msgs, rep.LossPct, rep.DupPct, rep.ReorderPct, r.Config.PerNode, r.Config.Seed)
	for _, l := range rep.Legs {
		mode := "normal"
		if l.ZeroOverhead {
			mode = "zero-overhead"
		}
		fmt.Fprintf(&sb, "  %-10s %-13s sent %4d decoded %4d (%5.1f%%) crashes %d overhead %dB",
			l.Transport, mode, l.Sent, l.Decoded, l.DeliveredPct(), l.Crashes, l.DataOverheadBytes)
		if l.Dropped+l.Duped+l.Reordered > 0 {
			fmt.Fprintf(&sb, " [link dropped %d duped %d reordered %d]", l.Dropped, l.Duped, l.Reordered)
		}
		if l.RekeysApplied > 0 {
			fmt.Fprintf(&sb, " rekeys %d (+%d dup)", l.RekeysApplied, l.RekeyDups)
		}
		if l.CoversDropped > 0 {
			fmt.Fprintf(&sb, " covers %d", l.CoversDropped)
		}
		if len(l.Rejects) > 0 {
			fmt.Fprintf(&sb, " rejects %v", l.Rejects)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("distinguishers over packet captures (held-out balanced accuracy; 0.5 = chance):\n")
	for i := range rep.Distinguishers {
		d, z := rep.Distinguishers[i], adversary.Accuracy{}
		if i < len(rep.ZeroOverheadDistinguishers) {
			z = rep.ZeroOverheadDistinguishers[i]
		}
		fmt.Fprintf(&sb, "  %-14s normal %.3f  zero-overhead %.3f\n", d.Name, d.Accuracy, z.Accuracy)
	}
	for _, m := range []struct {
		name string
		res  adversary.DatagramMutationResult
	}{{"normal", rep.Mutation}, {"zero-overhead", rep.ZeroOverheadMutation}} {
		fmt.Fprintf(&sb, "mutation (%s): %d cases, %d packets, %d crashes, %d decoded, %d rejected %v\n",
			m.name, m.res.Cases, m.res.Packets, m.res.Crashes, m.res.Decoded, m.res.Rejected(), m.res.Rejects)
	}
	return sb.String()
}
