package bench

import (
	"fmt"
	"strings"

	"protoobf/internal/codegen"
	"protoobf/internal/metrics"
	"protoobf/internal/rng"
	"protoobf/internal/transform"
)

// AblationRow isolates one generic transformation: how often it applies
// on the protocol graph, what it alone costs, and what it alone buys in
// potency — the per-design-choice breakdown behind the aggregate tables.
type AblationRow struct {
	Transform   string
	Applied     int
	LinesRatio  float64
	CGSizeRatio float64
	ParseMs     float64
	SerializeMs float64
	BufBytes    float64
}

// AblationResult is the per-transformation study for one protocol.
type AblationResult struct {
	Protocol string
	Rows     []AblationRow
}

// RunAblation obfuscates the protocol with exactly one generic
// transformation enabled at a time (one round), measuring its isolated
// applicability and effect.
func RunAblation(protocol string, msgs int, seed int64) (*AblationResult, error) {
	w, err := newWorkload(protocol)
	if err != nil {
		return nil, err
	}
	if msgs <= 0 {
		msgs = 30
	}
	baseline, err := measurePotency(w.reqG, w.respG, seed)
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	res := &AblationResult{Protocol: protocol}
	for _, t := range transform.Catalog() {
		r := rng.New(root.Int63())
		reqRes, err := transform.Obfuscate(w.reqG, transform.Options{PerNode: 1, Only: []string{t.Name()}}, r)
		if err != nil {
			return nil, err
		}
		respRes, err := transform.Obfuscate(w.respG, transform.Options{PerNode: 1, Only: []string{t.Name()}}, r)
		if err != nil {
			return nil, err
		}
		row := AblationRow{Transform: t.Name(), Applied: len(reqRes.Applied) + len(respRes.Applied)}

		var pot metrics.Potency
		for _, gr := range []*transform.Result{reqRes, respRes} {
			src, err := codegen.Generate(gr.Graph, codegen.Options{Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("ablation %s: %w", t.Name(), err)
			}
			p, err := metrics.Analyze(src, "Parse")
			if err != nil {
				return nil, err
			}
			pot.Lines += p.Lines
			pot.CallGraphSize += p.CallGraphSize
		}
		row.LinesRatio = float64(pot.Lines) / float64(baseline.Lines)
		row.CGSizeRatio = float64(pot.CallGraphSize) / float64(baseline.CallGraphSize)

		var serNs, parseNs, bytesTotal, n float64
		for i := 0; i < msgs; i++ {
			pair, err := w.pair(reqRes.Graph, respRes.Graph, r)
			if err != nil {
				return nil, fmt.Errorf("ablation %s: %w", t.Name(), err)
			}
			for mi, m := range pair {
				g := reqRes.Graph
				if mi == 1 {
					g = respRes.Graph
				}
				data, dSer, err := timeSerialize(m)
				if err != nil {
					return nil, fmt.Errorf("ablation %s: %w", t.Name(), err)
				}
				dParse, err := timeParse(g, data, r)
				if err != nil {
					return nil, fmt.Errorf("ablation %s: %w", t.Name(), err)
				}
				serNs += dSer
				parseNs += dParse
				bytesTotal += float64(len(data))
				n++
			}
		}
		row.ParseMs = parseNs / n / 1e6
		row.SerializeMs = serNs / n / 1e6
		row.BufBytes = bytesTotal / n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the ablation study.
func (a *AblationResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION — one transformation family at a time, 1 round (%s)\n", a.Protocol)
	fmt.Fprintf(&b, "%-16s %-9s %-11s %-12s %-11s %-12s %-10s\n",
		"transform", "applied", "lines(x)", "cg-size(x)", "parse(ms)", "serial.(ms)", "buf(B)")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-16s %-9d %-11.2f %-12.2f %-11.4f %-12.4f %-10.0f\n",
			r.Transform, r.Applied, r.LinesRatio, r.CGSizeRatio, r.ParseMs, r.SerializeMs, r.BufBytes)
	}
	return b.String()
}
