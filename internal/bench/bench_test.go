package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"protoobf/internal/rng"
	"protoobf/internal/stats"
	"protoobf/internal/transform"
	"protoobf/internal/wire"
)

// smallCfg keeps unit-test campaigns fast; the CLI runs the full size.
func smallCfg(protocol string) Config {
	return Config{Protocol: protocol, Runs: 3, Levels: []int{1, 2}, MsgsPerRun: 4, Seed: 42}
}

func TestRunModbusCampaign(t *testing.T) {
	res, err := Run(smallCfg("modbus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %d", len(res.Levels))
	}
	l1, l2 := &res.Levels[0], &res.Levels[1]
	if l1.Applied.Avg() <= 0 {
		t.Error("no transformations applied at level 1")
	}
	if l2.Applied.Avg() <= l1.Applied.Avg() {
		t.Errorf("applied did not grow: %v -> %v", l1.Applied.Avg(), l2.Applied.Avg())
	}
	// Potency is normalized: level 1 must exceed 1.0 on lines/structs.
	if l1.Lines.Avg() <= 1.0 || l1.Structs.Avg() <= 1.0 || l1.CGSize.Avg() <= 1.0 {
		t.Errorf("potency at level 1 not above baseline: lines=%.2f structs=%.2f cg=%.2f",
			l1.Lines.Avg(), l1.Structs.Avg(), l1.CGSize.Avg())
	}
	if l2.Lines.Avg() <= l1.Lines.Avg() {
		t.Errorf("lines ratio did not grow: %.2f -> %.2f", l1.Lines.Avg(), l2.Lines.Avg())
	}
	if l1.BufBytes.Avg() <= 0 || l1.ParseMs.Avg() <= 0 || l1.SerializeMs.Avg() <= 0 {
		t.Error("cost metrics empty")
	}
	table := res.Table()
	for _, want := range []string{"TABLE IV", "Nb. transf. applied", "Call graph size", "Buffer size"} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
	fig, err := res.TimeFigure()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig, "FIGURE 5") || !strings.Contains(fig, "applied,parse_ms") {
		t.Errorf("time figure malformed:\n%s", fig)
	}
	pf := res.PotencyFigure()
	if !strings.Contains(pf, "FIGURE 7") {
		t.Errorf("potency figure malformed:\n%s", pf)
	}
}

func TestRunHTTPCampaign(t *testing.T) {
	res, err := Run(smallCfg("http"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table(), "TABLE III") {
		t.Error("http campaign should render table III")
	}
	l1 := &res.Levels[0]
	if l1.Lines.Avg() <= 1.0 {
		t.Errorf("http potency at level 1 = %.2f", l1.Lines.Avg())
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if _, err := Run(Config{Protocol: "ftp"}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// workPoint is the deterministic per-message work of one campaign run:
// its applied transformations and the heap allocations of one serialize
// and one parse, averaged over the run's messages.
type workPoint struct {
	applied, serialize, parse float64
}

// measureWork runs the figure 4/5 campaign shape on Modbus (runs
// dialects per level, msgs message pairs each) and counts allocations
// with testing.AllocsPerRun instead of timing them.
func measureWork(t *testing.T, levels []int, runs, msgs int, seed int64) []workPoint {
	t.Helper()
	w, err := newWorkload("modbus")
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(seed)
	var points []workPoint
	for _, perNode := range levels {
		for run := 0; run < runs; run++ {
			r := rng.New(root.Int63())
			reqRes, err := transform.Obfuscate(w.reqG, transform.Options{PerNode: perNode}, r)
			if err != nil {
				t.Fatal(err)
			}
			respRes, err := transform.Obfuscate(w.respG, transform.Options{PerNode: perNode}, r)
			if err != nil {
				t.Fatal(err)
			}
			p := workPoint{applied: float64(len(reqRes.Applied) + len(respRes.Applied))}
			n := 0.0
			for i := 0; i < msgs; i++ {
				pair, err := w.pair(reqRes.Graph, respRes.Graph, r)
				if err != nil {
					t.Fatal(err)
				}
				for mi, m := range pair {
					g := reqRes.Graph
					if mi == 1 {
						g = respRes.Graph
					}
					data, err := wire.Serialize(m)
					if err != nil {
						t.Fatal(err)
					}
					var serErr, parseErr error
					p.serialize += testing.AllocsPerRun(3, func() { _, serErr = wire.Serialize(m) })
					p.parse += testing.AllocsPerRun(3, func() { _, parseErr = wire.Parse(g, data, r) })
					if err := errors.Join(serErr, parseErr); err != nil {
						t.Fatal(err)
					}
					n++
				}
			}
			p.serialize /= n
			p.parse /= n
			points = append(points, p)
		}
	}
	return points
}

// workGrows fits per-message allocations against applied
// transformations and fails unless both slopes are positive: the
// paper's figure 4/5 claim that cost grows with the transformations
// applied.
func workGrows(points []workPoint) (parse, serialize stats.LinReg, err error) {
	var xs, parseYs, serYs []float64
	for _, p := range points {
		xs = append(xs, p.applied)
		parseYs = append(parseYs, p.parse)
		serYs = append(serYs, p.serialize)
	}
	if parse, err = stats.Fit(xs, parseYs); err != nil {
		return
	}
	if serialize, err = stats.Fit(xs, serYs); err != nil {
		return
	}
	if parse.Slope <= 0 || serialize.Slope <= 0 {
		err = fmt.Errorf("work does not grow with transformations: parse slope %v, serialize slope %v allocs per transformation",
			parse.Slope, serialize.Slope)
	}
	return
}

// TestWorkGrowsWithTransformations checks figures 4/5 on allocations,
// which do not depend on the clock; the timed fit stays in the -figure
// time report.
func TestWorkGrowsWithTransformations(t *testing.T) {
	parse, ser, err := workGrows(measureWork(t, []int{1, 3}, 4, 6, 7))
	t.Logf("parse: %v", parse)
	t.Logf("serialize: %v", ser)
	if err != nil {
		t.Error(err)
	}
}

// TestWorkGrowsRejectsFlatCost feeds workGrows a stub whose cost does
// not move with the transformations applied; it must fail.
func TestWorkGrowsRejectsFlatCost(t *testing.T) {
	flat := []workPoint{{10, 40, 60}, {20, 40, 60}, {30, 40, 60}, {40, 40, 60}}
	if _, _, err := workGrows(flat); err == nil {
		t.Error("workGrows accepted a flat cost")
	}
	falling := []workPoint{{10, 40, 60}, {20, 41, 59}, {30, 42, 58}}
	if _, _, err := workGrows(falling); err == nil {
		t.Error("workGrows accepted a parse cost that falls")
	}
}

// TestTimeFigureDegenerateX pins the report behavior on a single-level
// campaign where every run applies the same transformation count (level
// 0 applies none): the scatter still renders, with the fit lines marked
// n/a, and TimeFits surfaces the stats.ErrDegenerate sentinel instead of
// an opaque failure.
func TestTimeFigureDegenerateX(t *testing.T) {
	res, err := Run(Config{Protocol: "modbus", Runs: 3, Levels: []int{0}, MsgsPerRun: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := res.TimeFigure()
	if err != nil {
		t.Fatalf("TimeFigure failed on degenerate x: %v", err)
	}
	if !strings.Contains(fig, "fit:     n/a (degenerate x)") {
		t.Errorf("figure lacks the n/a fit line:\n%s", fig)
	}
	if !strings.Contains(fig, "applied,parse_ms,serialize_ms") {
		t.Errorf("figure lost its scatter:\n%s", fig)
	}
	// The scatter rows themselves must still be present (3 runs).
	if got := strings.Count(fig, "\n0,"); got != 3 {
		t.Errorf("scatter rows = %d, want 3:\n%s", got, fig)
	}
	if _, _, err := res.TimeFits(); !errors.Is(err, stats.ErrDegenerate) {
		t.Errorf("TimeFits err = %v, want stats.ErrDegenerate", err)
	}
}

func TestResilienceCampaign(t *testing.T) {
	res, err := RunResilience(ResilienceConfig{PerType: 6, Levels: []int{0, 1}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %d", len(res.Levels))
	}
	plain, obf := res.Levels[0], res.Levels[1]
	if plain.PerNode != 0 || plain.Applied != 0 {
		t.Errorf("plain level misconfigured: %+v", plain)
	}
	if obf.Applied == 0 {
		t.Error("obfuscated level applied nothing")
	}
	if obf.PairwiseF1 > plain.PairwiseF1 {
		t.Errorf("classification improved under obfuscation: %.2f > %.2f", obf.PairwiseF1, plain.PairwiseF1)
	}
	if !strings.Contains(res.Table(), "RESILIENCE") {
		t.Error("resilience table malformed")
	}
}

func TestAblation(t *testing.T) {
	res, err := RunAblation("modbus", 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d, want 13 transformations", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Transform] = r
	}
	// Frequently applicable transformations must have applied on the
	// Modbus graphs.
	for _, name := range []string{"SplitAdd", "ConstXor", "PadInsert", "ChildMove"} {
		if byName[name].Applied == 0 {
			t.Errorf("%s never applied on modbus", name)
		}
	}
	// PadInsert grows the buffer relative to ChildMove (which is free).
	if byName["PadInsert"].BufBytes <= byName["ChildMove"].BufBytes {
		t.Errorf("PadInsert buffer %f not above ChildMove %f",
			byName["PadInsert"].BufBytes, byName["ChildMove"].BufBytes)
	}
	if !strings.Contains(res.Table(), "ABLATION") {
		t.Error("ablation table malformed")
	}
}

func TestCalibrate(t *testing.T) {
	res, err := Calibrate(CalibrateConfig{Target: 0.2, MaxPerNode: 4, Trials: 3, PerType: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 2 {
		t.Fatalf("levels = %d", len(res.Levels))
	}
	plain := res.Levels[0]
	if plain.PerNode != 0 || plain.Score.Avg() <= 0.2 {
		t.Errorf("plain PRE score %.2f should exceed the target", plain.Score.Avg())
	}
	if res.Recommended < 1 {
		t.Errorf("no recommendation found: %+v", res.Levels)
	}
	// Scores must not increase with the level (monotone degradation,
	// allowing small noise).
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Score.Avg() > res.Levels[i-1].Score.Avg()+0.15 {
			t.Errorf("PRE score rose from level %d to %d: %.2f -> %.2f",
				res.Levels[i-1].PerNode, res.Levels[i].PerNode,
				res.Levels[i-1].Score.Avg(), res.Levels[i].Score.Avg())
		}
	}
	if !strings.Contains(res.Table(), "CALIBRATION") {
		t.Error("calibration table malformed")
	}
}
