// Package bench is the experiment harness reproducing the paper's
// evaluation (§VII): for each protocol (TCP-Modbus, simplified HTTP) and
// each obfuscation level (0..4 transformations per node) it runs many
// independent experiments — random transformation selection, source
// generation, random message workloads — and collects the potency and
// cost measures of tables III/IV and figures 4–7, plus the §VII-D
// resilience assessment against the PRE baseline of internal/pre.
package bench

import (
	"fmt"
	"time"

	"protoobf/internal/codegen"
	"protoobf/internal/graph"
	"protoobf/internal/metrics"
	"protoobf/internal/msgtree"
	"protoobf/internal/protocols/httpmsg"
	"protoobf/internal/protocols/modbus"
	"protoobf/internal/rng"
	"protoobf/internal/stats"
	"protoobf/internal/transform"
	"protoobf/internal/wire"
)

// Config parameterizes one experiment campaign.
type Config struct {
	// Protocol is "modbus" or "http".
	Protocol string
	// Runs is the number of independent experiments per obfuscation
	// level (the paper uses 1000).
	Runs int
	// Levels are the transformations-per-node settings (default 1..4;
	// level 0 is always measured once as the normalization baseline).
	Levels []int
	// MsgsPerRun is the number of request/response pairs serialized and
	// parsed per experiment for the timing and buffer measures.
	MsgsPerRun int
	// Seed drives the whole campaign deterministically.
	Seed int64
}

func (c *Config) defaults() {
	if c.Runs == 0 {
		c.Runs = 50
	}
	if len(c.Levels) == 0 {
		c.Levels = []int{1, 2, 3, 4}
	}
	if c.MsgsPerRun == 0 {
		c.MsgsPerRun = 20
	}
}

// Point is one experiment's contribution to the figures: the number of
// transformations effectively applied vs the per-message times.
type Point struct {
	Applied     int
	ParseMs     float64
	SerializeMs float64
}

// LevelResult aggregates one obfuscation level.
type LevelResult struct {
	PerNode int
	Applied stats.Agg

	// Potency, normalized by the level-0 baseline.
	Lines   stats.Agg
	Structs stats.Agg
	CGSize  stats.Agg
	CGDepth stats.Agg

	// Costs, absolute.
	GenerationMs stats.Agg
	ParseMs      stats.Agg
	SerializeMs  stats.Agg
	BufBytes     stats.Agg

	Points []Point
}

// Result is a full campaign for one protocol.
type Result struct {
	Protocol string
	Config   Config
	Baseline metrics.Potency
	Levels   []LevelResult
}

// workload abstracts the two protocols of the evaluation.
type workload struct {
	name  string
	reqG  *graph.Graph
	respG *graph.Graph
	// pair builds one random request/response message pair on the given
	// (possibly obfuscated) graphs.
	pair func(reqG, respG *graph.Graph, r *rng.R) ([]*msgtree.Message, error)
}

func newWorkload(protocol string) (*workload, error) {
	switch protocol {
	case "modbus":
		reqG, err := modbus.RequestGraph()
		if err != nil {
			return nil, err
		}
		respG, err := modbus.ResponseGraph()
		if err != nil {
			return nil, err
		}
		bank := modbus.NewBank()
		return &workload{
			name: protocol, reqG: reqG, respG: respG,
			pair: func(rg, pg *graph.Graph, r *rng.R) ([]*msgtree.Message, error) {
				req := modbus.RandomRequest(r)
				m1, err := modbus.BuildRequest(rg, r, req)
				if err != nil {
					return nil, err
				}
				m2, err := modbus.BuildResponse(pg, r, modbus.RespondTo(req, bank))
				if err != nil {
					return nil, err
				}
				return []*msgtree.Message{m1, m2}, nil
			},
		}, nil
	case "http":
		reqG, err := httpmsg.RequestGraph()
		if err != nil {
			return nil, err
		}
		respG, err := httpmsg.ResponseGraph()
		if err != nil {
			return nil, err
		}
		return &workload{
			name: protocol, reqG: reqG, respG: respG,
			pair: func(rg, pg *graph.Graph, r *rng.R) ([]*msgtree.Message, error) {
				req := httpmsg.RandomRequest(r)
				m1, err := httpmsg.BuildRequest(rg, r, req)
				if err != nil {
					return nil, err
				}
				m2, err := httpmsg.BuildResponse(pg, r, httpmsg.RespondTo(req))
				if err != nil {
					return nil, err
				}
				return []*msgtree.Message{m1, m2}, nil
			},
		}, nil
	default:
		return nil, fmt.Errorf("bench: unknown protocol %q (want modbus or http)", protocol)
	}
}

// measurePotency generates the libraries for both directions and sums
// their static metrics (depth: maximum).
func measurePotency(reqG, respG *graph.Graph, seed int64) (metrics.Potency, error) {
	var total metrics.Potency
	for _, g := range []*graph.Graph{reqG, respG} {
		src, err := codegen.Generate(g, codegen.Options{Seed: seed})
		if err != nil {
			return total, err
		}
		p, err := metrics.Analyze(src, "Parse")
		if err != nil {
			return total, err
		}
		total.Lines += p.Lines
		total.Structs += p.Structs
		total.Funcs += p.Funcs
		total.CallGraphSize += p.CallGraphSize
		if p.CallGraphDepth > total.CallGraphDepth {
			total.CallGraphDepth = p.CallGraphDepth
		}
	}
	return total, nil
}

// Run executes the campaign.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	w, err := newWorkload(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)

	baseline, err := measurePotency(w.reqG, w.respG, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: baseline potency: %w", err)
	}
	res := &Result{Protocol: cfg.Protocol, Config: cfg, Baseline: baseline}

	for _, perNode := range cfg.Levels {
		lr := LevelResult{PerNode: perNode}
		for run := 0; run < cfg.Runs; run++ {
			r := rng.New(root.Int63())
			if err := oneRun(w, perNode, cfg, r, baseline, &lr); err != nil {
				return nil, fmt.Errorf("bench: %s level %d run %d: %w", cfg.Protocol, perNode, run, err)
			}
		}
		res.Levels = append(res.Levels, lr)
	}
	return res, nil
}

func oneRun(w *workload, perNode int, cfg Config, r *rng.R, baseline metrics.Potency, lr *LevelResult) error {
	// Generation time covers transformation selection/application and
	// source generation for both directions (the paper's "generation
	// time": transformations + code generation, §VII-B).
	genStart := time.Now()
	reqRes, err := transform.Obfuscate(w.reqG, transform.Options{PerNode: perNode}, r)
	if err != nil {
		return err
	}
	respRes, err := transform.Obfuscate(w.respG, transform.Options{PerNode: perNode}, r)
	if err != nil {
		return err
	}
	reqSrc, err := codegen.Generate(reqRes.Graph, codegen.Options{Seed: r.Int63()})
	if err != nil {
		return fmt.Errorf("generate request lib: %w\n%s", err, reqRes.Trace())
	}
	respSrc, err := codegen.Generate(respRes.Graph, codegen.Options{Seed: r.Int63()})
	if err != nil {
		return fmt.Errorf("generate response lib: %w\n%s", err, respRes.Trace())
	}
	genMs := float64(time.Since(genStart).Microseconds()) / 1e3

	applied := len(reqRes.Applied) + len(respRes.Applied)
	lr.Applied.Add(float64(applied))
	lr.GenerationMs.Add(genMs)

	// Potency of the generated libraries, normalized by the baseline.
	var pot metrics.Potency
	for _, src := range []string{reqSrc, respSrc} {
		p, err := metrics.Analyze(src, "Parse")
		if err != nil {
			return err
		}
		pot.Lines += p.Lines
		pot.Structs += p.Structs
		pot.CallGraphSize += p.CallGraphSize
		if p.CallGraphDepth > pot.CallGraphDepth {
			pot.CallGraphDepth = p.CallGraphDepth
		}
	}
	ratio := pot.Ratio(baseline)
	lr.Lines.Add(ratio.Lines)
	lr.Structs.Add(ratio.Structs)
	lr.CGSize.Add(ratio.CallGraphSize)
	lr.CGDepth.Add(ratio.CallGraphDepth)

	// Workload: random messages with random values (§VII-A), measuring
	// per-message serialization and parsing times and the buffer size.
	var serNs, parseNs, nMsgs float64
	for i := 0; i < cfg.MsgsPerRun; i++ {
		pair, err := w.pair(reqRes.Graph, respRes.Graph, r)
		if err != nil {
			return err
		}
		for mi, m := range pair {
			g := reqRes.Graph
			if mi == 1 {
				g = respRes.Graph
			}
			data, dSer, err := timeSerialize(m)
			if err != nil {
				return fmt.Errorf("serialize: %w", err)
			}
			lr.BufBytes.Add(float64(len(data)))
			dParse, err := timeParse(g, data, r)
			if err != nil {
				return fmt.Errorf("parse: %w", err)
			}
			serNs += dSer
			parseNs += dParse
			nMsgs++
		}
	}
	parseMs := parseNs / nMsgs / 1e6
	serMs := serNs / nMsgs / 1e6
	lr.ParseMs.Add(parseMs)
	lr.SerializeMs.Add(serMs)
	lr.Points = append(lr.Points, Point{Applied: applied, ParseMs: parseMs, SerializeMs: serMs})
	return nil
}

// timeSerialize serializes m and returns the wire bytes and the elapsed
// nanoseconds.
func timeSerialize(m *msgtree.Message) ([]byte, float64, error) {
	t0 := time.Now()
	data, err := wire.Serialize(m)
	return data, float64(time.Since(t0).Nanoseconds()), err
}

// timeParse parses data on g and returns the elapsed nanoseconds.
func timeParse(g *graph.Graph, data []byte, r *rng.R) (float64, error) {
	t0 := time.Now()
	_, err := wire.Parse(g, data, r)
	return float64(time.Since(t0).Nanoseconds()), err
}
