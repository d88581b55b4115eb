package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoobf/internal/adversary"
)

// smallAdversary keeps the unit-test run fast; the CLI runs full size.
func smallAdversary() AdversaryConfig {
	return AdversaryConfig{
		RunID:         "test-run",
		Seed:          7,
		Msgs:          96,
		Window:        8,
		MutationCases: 8,
		CovertEpochs:  8,
	}
}

func TestRunAdversary(t *testing.T) {
	rep, err := RunAdversary(context.Background(), smallAdversary())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Mutation.Crashes != 0 {
		t.Fatalf("mutation crashes = %d: %+v", rep.Mutation.Crashes, rep.Mutation)
	}
	// The content distinguishers must see through perNode 0 vs 2 even at
	// this reduced capture size.
	seen := map[string]bool{}
	for _, d := range rep.Distinguishers {
		seen[d.Name] = true
		if d.Name != "timing-ks" && d.Accuracy < 0.8 {
			t.Errorf("%s accuracy = %.3f, want >= 0.8", d.Name, d.Accuracy)
		}
	}
	for _, want := range []string{"length-ks", "length-chi2", "byte-entropy", "timing-ks"} {
		if !seen[want] {
			t.Errorf("distinguisher %q missing from report", want)
		}
	}
	// The covert calibration point and the live estimate.
	if rep.Covert[0].PerNode != 0 || rep.Covert[0].Bits != 0 {
		t.Errorf("covert calibration row wrong: %+v", rep.Covert[0])
	}
	if rep.Covert[1].Bits <= 0 {
		t.Errorf("covert estimate empty: %+v", rep.Covert[1])
	}
	table := rep.Table()
	for _, want := range []string{"ADVERSARY", "mutation campaign", "covert capacity", "epoch boundary"} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
}

func TestBenchReportWriteJSON(t *testing.T) {
	rep, err := RunAdversary(context.Background(), smallAdversary())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := rep.WriteJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_test-run.json"); path != want {
		t.Errorf("path = %q, want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("re-read report invalid: %v", err)
	}
	if back.RunID != "test-run" || back.Schema != BenchSchema {
		t.Errorf("identity fields lost: %+v", back)
	}
	if back.Mutation == nil || len(back.Mutation.Rejects) == 0 {
		t.Error("reject taxonomy lost in serialization")
	}
	// The sections other workloads leave out are always filled here.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, present := range []string{"distinguishers", "mutation", "covert"} {
		if _, ok := keys[present]; !ok {
			t.Errorf("adversary report lacks its %q section", present)
		}
	}
}

// TestRunAdversaryShaped exercises the shaped half of the report: the
// bench-smoke CI gate in miniature. The shaped captures must drive every
// gated distinguisher to (at most) the stealth ceiling while the
// unshaped panel stays sharp, and the overhead numbers must be real.
func TestRunAdversaryShaped(t *testing.T) {
	cfg := smallAdversary()
	cfg.Shape = true
	rep, err := RunAdversary(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Shaping == nil {
		t.Fatal("Shape: true produced no shaping report")
	}
	if rep.Shaping.Profile == "" {
		t.Error("shaping profile name empty")
	}
	if bad := rep.Shaping.GateFailures(); len(bad) > 0 {
		t.Errorf("stealth gate failures: %+v", bad)
	}
	shaped := map[string]float64{}
	for _, d := range rep.Shaping.Shaped {
		shaped[d.Name] = d.Accuracy
	}
	for _, name := range ShapeGatedNames {
		a, ok := shaped[name]
		if !ok {
			t.Errorf("gated distinguisher %q missing from shaped panel", name)
			continue
		}
		if a > ShapeGate {
			t.Errorf("shaped %s accuracy = %.3f, want <= %.2f", name, a, ShapeGate)
		}
	}
	if rep.Shaping.PadOverhead <= 0 {
		t.Errorf("pad overhead = %.3f, want > 0 (padding is not free)", rep.Shaping.PadOverhead)
	}
	if rep.Shaping.DelayMsPerMsg < 0 {
		t.Errorf("delay overhead = %.3f ms/msg negative — pacing cannot speed traffic up", rep.Shaping.DelayMsPerMsg)
	}
	table := rep.Table()
	for _, want := range []string{"shaped (profile", "overhead:", "gate: length/timing"} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}

	// The shaping block must survive a JSON round trip.
	dir := t.TempDir()
	path, err := rep.WriteJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Shaping == nil || len(back.Shaping.Shaped) != len(rep.Shaping.Shaped) {
		t.Errorf("shaping block lost in serialization: %+v", back.Shaping)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("re-read shaped report invalid: %v", err)
	}
}

func TestBenchReportValidateRejects(t *testing.T) {
	rep, err := RunAdversary(context.Background(), smallAdversary())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func(*BenchReport)
	}{
		{"schema", func(r *BenchReport) { r.Schema = "nope" }},
		{"runid-empty", func(r *BenchReport) { r.RunID = "" }},
		{"runid-slash", func(r *BenchReport) { r.RunID = "a/b" }},
		{"created", func(r *BenchReport) { r.Created = "yesterday" }},
		{"no-distinguishers", func(r *BenchReport) { r.Distinguishers = nil }},
		{"accuracy-range", func(r *BenchReport) { r.Distinguishers[0].Accuracy = 1.5 }},
		{"mutation-tally", func(r *BenchReport) { r.Mutation.Decoded += 3 }},
		{"covert-range", func(r *BenchReport) { r.Covert[0].Bits = r.Covert[0].MaxBits + 1 }},
		{"shaping-empty", func(r *BenchReport) { r.Shaping = &ShapingReport{Profile: "x"} }},
		{"shaping-accuracy", func(r *BenchReport) {
			r.Shaping = &ShapingReport{Profile: "x", Shaped: []adversary.Accuracy{{Name: "length-ks", Accuracy: 2, Windows: 4}}}
		}},
		{"shaping-negative-pad", func(r *BenchReport) {
			r.Shaping = &ShapingReport{Profile: "x", PadOverhead: -0.5,
				Shaped: []adversary.Accuracy{{Name: "length-ks", Accuracy: 0.5, Windows: 4}}}
		}},
	}
	for _, c := range cases {
		bad := *rep
		// Deep-enough copies for the fields the cases mutate.
		bad.Distinguishers = append([]adversary.Accuracy(nil), rep.Distinguishers...)
		bad.Covert = append([]adversary.CovertEstimate(nil), rep.Covert...)
		mut := *rep.Mutation
		bad.Mutation = &mut
		c.corrupt(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: corrupted report validated", c.name)
		}
		if _, err := bad.WriteJSON(t.TempDir()); err == nil {
			t.Errorf("%s: corrupted report written", c.name)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Errorf("pristine report no longer validates: %v", err)
	}
}
