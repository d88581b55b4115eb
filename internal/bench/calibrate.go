package bench

import (
	"fmt"
	"strings"

	"protoobf/internal/pre"
	"protoobf/internal/protocols/modbus"
	"protoobf/internal/rng"
	"protoobf/internal/stats"
	"protoobf/internal/transform"
)

// Calibrate addresses the open question of the paper's conclusion:
// "Another open question concerns the definition of the number of
// obfuscations needed to achieve an acceptable level of resilience of
// the protocol against reverse engineering attacks."
//
// It searches for the smallest transformations-per-node level whose
// average PRE score (pairwise classification F1 combined with
// field-boundary F1 against the alignment baseline) falls below the
// requested target, estimating each level over several seeds.
type CalibrateConfig struct {
	// Target is the acceptable residual PRE score in [0,1]; the search
	// returns the first level whose score drops below it.
	Target float64
	// MaxPerNode bounds the search (default 6).
	MaxPerNode int
	// Trials per level (default 5 seeds).
	Trials int
	// PerType messages per request type in each trace (default 8).
	PerType int
	Seed    int64
}

func (c *CalibrateConfig) defaults() {
	if c.Target == 0 {
		c.Target = 0.2
	}
	if c.MaxPerNode == 0 {
		c.MaxPerNode = 6
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.PerType == 0 {
		c.PerType = 8
	}
}

// CalibrateLevel is the measured residual inference power at one level.
type CalibrateLevel struct {
	PerNode int
	// Score is the mean of (pairwiseF1 + fieldF1)/2 across trials.
	Score stats.Agg
}

// CalibrateResult reports the search outcome.
type CalibrateResult struct {
	Config CalibrateConfig
	Levels []CalibrateLevel
	// Recommended is the smallest level meeting the target, or -1 when
	// even MaxPerNode does not reach it.
	Recommended int
}

// Calibrate runs the search on the Modbus request protocol.
func Calibrate(cfg CalibrateConfig) (*CalibrateResult, error) {
	cfg.defaults()
	reqG, err := modbus.RequestGraph()
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	res := &CalibrateResult{Config: cfg, Recommended: -1}
	for perNode := 0; perNode <= cfg.MaxPerNode; perNode++ {
		lvl := CalibrateLevel{PerNode: perNode}
		for trial := 0; trial < cfg.Trials; trial++ {
			r := rng.New(root.Int63())
			g := reqG
			if perNode > 0 {
				tr, err := transform.Obfuscate(reqG, transform.Options{PerNode: perNode}, r)
				if err != nil {
					return nil, err
				}
				g = tr.Graph
			}
			msgs, labels, truth := pre.ModbusTrace(g, r, cfg.PerType)
			a := pre.Run(msgs, labels, truth, 0.5)
			lvl.Score.Add((a.Classification.PairwiseF1 + a.FieldF1) / 2)
		}
		res.Levels = append(res.Levels, lvl)
		if perNode > 0 && res.Recommended < 0 && lvl.Score.Avg() <= cfg.Target {
			res.Recommended = perNode
			break
		}
	}
	return res, nil
}

// Table renders the calibration.
func (r *CalibrateResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CALIBRATION — obfuscations per node needed for residual PRE score <= %.2f\n", r.Config.Target)
	fmt.Fprintf(&b, "%-10s %-24s\n", "per-node", "PRE score avg[min;max]")
	for _, l := range r.Levels {
		fmt.Fprintf(&b, "%-10d %-24s\n", l.PerNode, l.Score.Cell(2))
	}
	if r.Recommended >= 0 {
		fmt.Fprintf(&b, "recommended: %d transformation(s) per node\n", r.Recommended)
	} else {
		fmt.Fprintf(&b, "target not reached within %d transformations per node\n", r.Config.MaxPerNode)
	}
	return b.String()
}
