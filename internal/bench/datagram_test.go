package bench

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestRunDatagramSmall runs the full datagram workload at CI size and
// checks the gates the CLI enforces: zero crashes everywhere and zero
// framing bytes on zero-overhead data packets.
func TestRunDatagramSmall(t *testing.T) {
	res, err := RunDatagram(context.Background(), DatagramConfig{
		Seed: 11, Msgs: 80, MutationCases: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Legs) != 6 {
		t.Fatalf("got %d legs, want 6 (3 transports x 2 modes)", len(rep.Legs))
	}
	if c := rep.Crashes(); c != 0 {
		t.Errorf("workload crashed %d times", c)
	}
	if bad := rep.ZeroOverheadViolations(); len(bad) > 0 {
		t.Errorf("zero-overhead legs added framing bytes: %+v", bad)
	}
	for _, l := range rep.Legs {
		if l.Decoded == 0 {
			t.Errorf("%s (zo=%v) decoded nothing", l.Transport, l.ZeroOverhead)
		}
		if !l.ZeroOverhead && l.DataOverheadBytes != uint64(l.Sent)*12 {
			t.Errorf("%s normal-mode overhead %d bytes, want %d (12/packet)",
				l.Transport, l.DataOverheadBytes, l.Sent*12)
		}
	}
	// The lossy legs must actually have been lossy, and still deliver
	// most of the traffic.
	for _, l := range rep.Legs {
		if l.Transport != "lossy-pipe" {
			continue
		}
		if l.Dropped == 0 {
			t.Errorf("lossy leg (zo=%v) dropped nothing — the link is not injecting loss", l.ZeroOverhead)
		}
		if pct := l.DeliveredPct(); pct < 75 {
			t.Errorf("lossy leg (zo=%v) delivered only %.1f%%", l.ZeroOverhead, pct)
		}
	}
	if len(rep.Distinguishers) == 0 || len(rep.ZeroOverheadDistinguishers) == 0 {
		t.Error("distinguisher panels missing")
	}
	if rep.Mutation.Packets == 0 || rep.ZeroOverheadMutation.Packets == 0 {
		t.Error("mutation campaigns missing")
	}
}

// TestDatagramReportJSON pins the report through the BENCH schema:
// a datagram-only report validates, writes and round-trips, and carries
// none of the optional sections a datagram run does not fill.
func TestDatagramReportJSON(t *testing.T) {
	res, err := RunDatagram(context.Background(), DatagramConfig{
		Seed: 11, Msgs: 40, MutationCases: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := &BenchReport{
		Schema:   BenchSchema,
		RunID:    "dgram-test",
		Created:  time.Now().UTC().Format(time.RFC3339),
		Go:       runtime.Version(),
		Seed:     11,
		PerNode:  res.Config.PerNode,
		Datagram: &res.Report,
	}
	path, err := rep.WriteJSON(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Optional sections a datagram run does not fill stay out of the
	// file instead of appearing as zero-valued blocks.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"perf", "distinguishers", "mutation", "covert", "latency", "shaping", "gateway"} {
		if _, ok := keys[absent]; ok {
			t.Errorf("datagram-only report carries a %q section", absent)
		}
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if back.Datagram == nil || len(back.Datagram.Legs) != len(res.Report.Legs) {
		t.Fatalf("datagram section lost in round trip: %+v", back.Datagram)
	}
}
