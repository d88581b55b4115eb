package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"protoobf"
	"protoobf/internal/adversary"
)

// BenchSchema names the BENCH_<runid>.json layout; bump it when a field
// changes meaning, so trajectory tooling can refuse files it does not
// understand.
const BenchSchema = "protoobf-bench/v2"

// AdversaryConfig parameterizes the standing adversary run: the
// distinguisher panel, the mutation campaign and the covert-capacity
// estimate, all folded into one machine-readable report.
type AdversaryConfig struct {
	// RunID names the report file BENCH_<RunID>.json; empty derives one
	// from the creation timestamp.
	RunID string
	// Seed is the campaign seed (family, traffic and mutations).
	Seed int64
	// PerNode is the obfuscation level under attack (default 2).
	PerNode int
	// Msgs is the capture size per labeled trace (default 256).
	Msgs int
	// Window is the distinguisher window, in frames (default 16).
	Window int
	// MutationCases is the number of mutated streams per strategy
	// (default 48).
	MutationCases int
	// CovertEpochs is the number of dialect versions probed for the
	// capacity estimate (default 32).
	CovertEpochs int
	// Shape additionally runs the shaped evaluation: both captures are
	// re-taken under the default traffic-shaping profile and the
	// distinguisher panel re-run on them, reporting the shaped
	// accuracies plus the byte and latency overhead shaping costs.
	Shape bool
}

// ShapeGate is the ceiling a shaped length or timing distinguisher may
// reach before the CI bench-smoke run fails: shaping that leaves a
// gated distinguisher above 0.6 held-out accuracy is not working.
const ShapeGate = 0.6

// ShapeGatedNames lists the distinguishers the ShapeGate applies to —
// the signals shaping exists to erase. Byte-level distinguishers are
// deliberately absent: content indistinguishability is the dialect
// layer's job, not the shaper's.
var ShapeGatedNames = []string{"length-ks", "length-chi2", "timing-ks"}

// ShapingReport is the shaped half of the trajectory: the same
// distinguisher panel over captures taken under a shaping profile, and
// what that stealth costs.
type ShapingReport struct {
	// Profile names the shaping profile the captures ran under.
	Profile string `json:"profile"`
	// Shaped is the distinguisher panel over the shaped captures; the
	// unshaped panel lives in BenchReport.Distinguishers.
	Shaped []adversary.Accuracy `json:"shaped_distinguishers"`
	// PadOverhead is the relative wire-byte cost of shaping: shaped
	// obfuscated bytes over unshaped obfuscated bytes, minus one.
	PadOverhead float64 `json:"pad_overhead"`
	// DelayMsPerMsg is the added departure latency per message, in
	// milliseconds, from pacing the shaped capture.
	DelayMsPerMsg float64 `json:"delay_ms_per_msg"`
}

// GateFailures returns the gated distinguishers whose shaped accuracy
// exceeds ShapeGate — empty when the shaping countermeasure holds.
func (s *ShapingReport) GateFailures() []adversary.Accuracy {
	var bad []adversary.Accuracy
	for _, a := range s.Shaped {
		for _, name := range ShapeGatedNames {
			if a.Name == name && a.Accuracy > ShapeGate {
				bad = append(bad, a)
			}
		}
	}
	return bad
}

// BenchReport is the machine-readable outcome of one adversary run —
// one point on the repo's BENCH trajectory.
type BenchReport struct {
	Schema         string                     `json:"schema"`
	RunID          string                     `json:"run_id"`
	Created        string                     `json:"created"` // RFC3339, UTC
	Go             string                     `json:"go"`
	Seed           int64                      `json:"seed"`
	PerNode        int                        `json:"per_node"`
	Distinguishers []adversary.Accuracy       `json:"distinguishers,omitempty"`
	Mutation       *adversary.MutationResult  `json:"mutation,omitempty"`
	Covert         []adversary.CovertEstimate `json:"covert,omitempty"`
	Shaping        *ShapingReport             `json:"shaping,omitempty"`
	Gateway        *GatewayReport             `json:"gateway,omitempty"`
	Datagram       *DatagramReport            `json:"datagram,omitempty"`
}

// RunAdversary executes the full standing-adversary evaluation.
func RunAdversary(ctx context.Context, cfg AdversaryConfig) (*BenchReport, error) {
	if cfg.PerNode <= 0 {
		cfg.PerNode = 2
	}
	if cfg.Msgs <= 0 {
		cfg.Msgs = 256
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.MutationCases <= 0 {
		cfg.MutationCases = 48
	}
	if cfg.CovertEpochs <= 0 {
		cfg.CovertEpochs = 32
	}
	created := time.Now().UTC()
	if cfg.RunID == "" {
		cfg.RunID = created.Format("20060102T150405Z")
	}

	plain, err := adversary.Capture(adversary.CaptureConfig{
		PerNode: 0, Seed: cfg.Seed, TrafficSeed: cfg.Seed + 1, Msgs: cfg.Msgs,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: plaintext capture: %w", err)
	}
	obf, err := adversary.Capture(adversary.CaptureConfig{
		PerNode: cfg.PerNode, Seed: cfg.Seed, TrafficSeed: cfg.Seed + 1, Msgs: cfg.Msgs,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: obfuscated capture: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var shaping *ShapingReport
	if cfg.Shape {
		prof := protoobf.DefaultShapeProfile()
		shapedPlain, err := adversary.Capture(adversary.CaptureConfig{
			PerNode: 0, Seed: cfg.Seed, TrafficSeed: cfg.Seed + 1, Msgs: cfg.Msgs, Shape: &prof,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: shaped plaintext capture: %w", err)
		}
		shapedObf, err := adversary.Capture(adversary.CaptureConfig{
			PerNode: cfg.PerNode, Seed: cfg.Seed, TrafficSeed: cfg.Seed + 1, Msgs: cfg.Msgs, Shape: &prof,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: shaped obfuscated capture: %w", err)
		}
		shaping = &ShapingReport{
			Profile:       prof.Name,
			Shaped:        adversary.Evaluate(shapedPlain, shapedObf, cfg.Window),
			PadOverhead:   float64(len(shapedObf.Raw))/float64(len(obf.Raw)) - 1,
			DelayMsPerMsg: traceSpan(shapedObf).Seconds() * 1e3 / float64(cfg.Msgs),
		}
		shaping.DelayMsPerMsg -= traceSpan(obf).Seconds() * 1e3 / float64(cfg.Msgs)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	mut, err := adversary.RunMutations(adversary.MutationConfig{
		PerNode: cfg.PerNode, Seed: cfg.Seed, Cases: cfg.MutationCases,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: mutation campaign: %w", err)
	}

	var covert []adversary.CovertEstimate
	for _, level := range []int{0, cfg.PerNode} {
		ce, err := adversary.CovertCapacity(level, cfg.CovertEpochs, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: covert capacity: %w", err)
		}
		covert = append(covert, ce)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	return &BenchReport{
		Schema:         BenchSchema,
		RunID:          cfg.RunID,
		Created:        created.Format(time.RFC3339),
		Go:             runtime.Version(),
		Seed:           cfg.Seed,
		PerNode:        cfg.PerNode,
		Distinguishers: adversary.Evaluate(plain, obf, cfg.Window),
		Mutation:       mut,
		Covert:         covert,
		Shaping:        shaping,
	}, nil
}

// traceSpan is the capture-clock duration from the first to the last
// tapped frame.
func traceSpan(tr *adversary.Trace) time.Duration {
	if len(tr.Frames) < 2 {
		return 0
	}
	return tr.Frames[len(tr.Frames)-1].At.Sub(tr.Frames[0].At)
}

// Validate checks the report is structurally sound before it is written
// or consumed: schema and identity fields present, every accuracy in
// range and the mutation tallies consistent.
// It does NOT require zero crashes — a report documenting a crash is
// valid (and alarming); callers decide whether to fail on it.
func (r *BenchReport) Validate() error {
	if r.Schema != BenchSchema {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, BenchSchema)
	}
	if r.RunID == "" || strings.ContainsAny(r.RunID, `/\ `) {
		return fmt.Errorf("bench: run id %q is not filename-safe", r.RunID)
	}
	if _, err := time.Parse(time.RFC3339, r.Created); err != nil {
		return fmt.Errorf("bench: created %q: %w", r.Created, err)
	}
	// A report carries the adversary evaluation, a gateway workload, a
	// datagram workload, or any mix; a report with none documents
	// nothing.
	hasAdversary := len(r.Distinguishers) > 0 || r.Mutation != nil || len(r.Covert) > 0
	if !hasAdversary && r.Gateway == nil && r.Datagram == nil {
		return fmt.Errorf("bench: report has no adversary, gateway or datagram section")
	}
	if hasAdversary {
		if err := r.validateAdversary(); err != nil {
			return err
		}
	}
	if g := r.Gateway; g != nil {
		if g.Sessions <= 0 || g.Backends <= 0 || g.Cycles <= 0 {
			return fmt.Errorf("bench: gateway shape missing: %+v", g)
		}
		if g.Resumes == 0 {
			return fmt.Errorf("bench: gateway workload numbers missing: %+v", g)
		}
		if g.ReplayRejected != g.ReplayProbes {
			return fmt.Errorf("bench: gateway let %d of %d ticket replays through",
				g.ReplayProbes-g.ReplayRejected, g.ReplayProbes)
		}
	}
	if d := r.Datagram; d != nil {
		if err := d.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks the datagram section is structurally sound. Like the
// rest of Validate it does not require zero crashes — the CLI gates on
// those; a report documenting a crash is valid evidence.
func (d *DatagramReport) validate() error {
	if len(d.Legs) == 0 {
		return fmt.Errorf("bench: datagram report has no legs")
	}
	for _, l := range d.Legs {
		if l.Transport == "" || l.Sent <= 0 {
			return fmt.Errorf("bench: malformed datagram leg %+v", l)
		}
	}
	for _, m := range []adversary.DatagramMutationResult{d.Mutation, d.ZeroOverheadMutation} {
		if m.Packets == 0 {
			continue
		}
		if m.Decoded+m.Controls+m.Crashes+m.Rejected() != m.Packets {
			return fmt.Errorf("bench: datagram mutation tallies inconsistent: %+v", m)
		}
	}
	return nil
}

// validateAdversary checks the adversary-evaluation sections of the
// report.
func (r *BenchReport) validateAdversary() error {
	if len(r.Distinguishers) == 0 {
		return fmt.Errorf("bench: no distinguisher results")
	}
	for _, d := range r.Distinguishers {
		if d.Name == "" || d.Accuracy < 0 || d.Accuracy > 1 || d.Windows <= 0 {
			return fmt.Errorf("bench: malformed distinguisher result %+v", d)
		}
	}
	if r.Mutation == nil {
		return fmt.Errorf("bench: no mutation campaign")
	}
	rejected := 0
	for _, v := range r.Mutation.Rejects {
		rejected += v
	}
	if r.Mutation.Total <= 0 || r.Mutation.Decoded+r.Mutation.Crashes+rejected != r.Mutation.Total {
		return fmt.Errorf("bench: mutation tallies inconsistent: %+v", r.Mutation)
	}
	if len(r.Covert) == 0 {
		return fmt.Errorf("bench: no covert estimates")
	}
	for _, c := range r.Covert {
		if c.Bits < 0 || c.Bits > c.MaxBits+1e-9 {
			return fmt.Errorf("bench: covert bits out of range: %+v", c)
		}
	}
	if r.Shaping != nil {
		if r.Shaping.Profile == "" || len(r.Shaping.Shaped) == 0 {
			return fmt.Errorf("bench: shaping report incomplete: %+v", r.Shaping)
		}
		for _, d := range r.Shaping.Shaped {
			if d.Name == "" || d.Accuracy < 0 || d.Accuracy > 1 || d.Windows <= 0 {
				return fmt.Errorf("bench: malformed shaped distinguisher result %+v", d)
			}
		}
		if r.Shaping.PadOverhead < 0 {
			return fmt.Errorf("bench: shaping pad overhead %.3f negative — shaped captures cannot shrink the wire", r.Shaping.PadOverhead)
		}
	}
	return nil
}

// WriteJSON validates the report and writes BENCH_<runid>.json into
// dir, returning the file path.
func (r *BenchReport) WriteJSON(dir string) (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+r.RunID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Table renders the human-readable summary the CLI prints alongside the
// JSON file.
func (r *BenchReport) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ADVERSARY — standing evaluation (run %s, perNode=%d, seed=%d)\n",
		r.RunID, r.PerNode, r.Seed)
	sb.WriteString("distinguishers (held-out balanced accuracy; 0.5 = chance):\n")
	for _, d := range r.Distinguishers {
		fmt.Fprintf(&sb, "  %-14s %.3f (plain recall %.2f, obf recall %.2f, %d windows)\n",
			d.Name, d.Accuracy, d.PlainRecall, d.ObfRecall, d.Windows)
	}
	if r.Shaping != nil {
		fmt.Fprintf(&sb, "shaped (profile %q; gate: length/timing <= %.2f):\n", r.Shaping.Profile, ShapeGate)
		for _, d := range r.Shaping.Shaped {
			fmt.Fprintf(&sb, "  %-14s %.3f (plain recall %.2f, obf recall %.2f, %d windows)\n",
				d.Name, d.Accuracy, d.PlainRecall, d.ObfRecall, d.Windows)
		}
		fmt.Fprintf(&sb, "  overhead: %.1f%% wire bytes, %.2f ms/msg added delay\n",
			r.Shaping.PadOverhead*100, r.Shaping.DelayMsPerMsg)
	}
	if m := r.Mutation; m != nil {
		fmt.Fprintf(&sb, "mutation campaign: %d cases, %d crashes, %d decoded, %d rejected\n",
			m.Total, m.Crashes, m.Decoded, m.Rejected())
		for reason, n := range m.Rejects {
			fmt.Fprintf(&sb, "  reject %-13s %d\n", reason, n)
		}
	}
	for _, c := range r.Covert {
		fmt.Fprintf(&sb, "covert capacity perNode=%d: %.2f bits/msg (ceiling %.2f over %d epochs, %d distinct encodings)\n",
			c.PerNode, c.Bits, c.MaxBits, c.Epochs, c.Distinct)
	}
	return sb.String()
}
