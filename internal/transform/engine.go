package transform

import (
	"fmt"
	"strings"

	"protoobf/internal/graph"
	"protoobf/internal/rng"
)

// Applied records one successful transformation application.
type Applied struct {
	// Transform is the generic transformation name (table I).
	Transform string
	// Target is the name of the graph node it was applied to.
	Target string
	// Detail describes the instantiation (constants, positions).
	Detail string
	// Round is the 1-based obfuscation round (≤ the per-node parameter).
	Round int
}

func (a Applied) String() string {
	return fmt.Sprintf("[round %d] %s(%s): %s", a.Round, a.Transform, a.Target, a.Detail)
}

// Result is the outcome of obfuscating a graph.
type Result struct {
	// Graph is the transformed graph G_{n+1}.
	Graph *graph.Graph
	// Applied lists every applied transformation, in application order.
	Applied []Applied
	// Rejected counts applications rolled back because the rewritten
	// graph failed global validation.
	Rejected int
}

// Options parameterizes the obfuscation engine.
type Options struct {
	// PerNode is the maximum number of obfuscations per node: the engine
	// performs PerNode rounds, and in each round visits every node of the
	// graph once, applying one randomly chosen applicable transformation
	// (paper §VI and §VII-A).
	PerNode int
	// Only restricts the catalog to the named transformations (ablation
	// experiments); empty means the full catalog.
	Only []string
	// Exclude removes the named transformations from the catalog.
	Exclude []string
}

// Obfuscate applies randomly selected generic transformations to a copy
// of g, never mutating the input. Every application is validated against
// the full invariant set of package graph; unsound rewrites are rolled
// back in place through a graph.Checkpoint taken before the attempt and
// counted in Result.Rejected.
func Obfuscate(g *graph.Graph, opts Options, r *rng.R) (*Result, error) {
	if opts.PerNode < 0 {
		return nil, fmt.Errorf("transform: negative per-node count %d", opts.PerNode)
	}
	catalog, err := selectCatalog(opts)
	if err != nil {
		return nil, err
	}
	cur := g.Clone()
	if err := cur.Validate(); err != nil {
		return nil, fmt.Errorf("transform: input graph invalid: %w", err)
	}
	if opts.PerNode > 0 {
		// Transformations grow the serialized size of length-bounded
		// regions (splits double fields, pads add bytes), so a narrow
		// length field of the plain protocol may no longer be able to
		// express its region's size. Widen auto-filled Length targets
		// before transforming; this widening is part of the obfuscation
		// cost and is reflected in the buffer-size measures.
		widenLengthTargets(cur)
		if err := cur.Validate(); err != nil {
			return nil, fmt.Errorf("transform: widening broke the graph: %w", err)
		}
	}
	res := &Result{}
	applicable := make([]Transform, 0, len(catalog))
	for round := 1; round <= opts.PerNode; round++ {
		// The node list is frozen per round; nodes created mid-round are
		// eligible from the next round on.
		names := make([]string, 0, cur.NodeCount())
		for _, n := range cur.Nodes() {
			names = append(names, n.Name)
		}
		for _, name := range names {
			n := cur.Find(name)
			if n == nil {
				continue // consumed by an earlier transformation this round
			}
			applicable = applicable[:0]
			for _, t := range catalog {
				if t.Applicable(cur, n) {
					applicable = append(applicable, t)
				}
			}
			if len(applicable) == 0 {
				continue
			}
			t := applicable[r.Intn(len(applicable))]
			cp := cur.Checkpoint(n)
			detail, err := t.Apply(cur, n, r)
			if err == nil {
				err = cur.Validate()
			}
			if err != nil {
				cp.Restore()
				res.Rejected++
				continue
			}
			res.Applied = append(res.Applied, Applied{
				Transform: t.Name(),
				Target:    name,
				Detail:    detail,
				Round:     round,
			})
		}
	}
	res.Graph = cur
	return res, nil
}

// widenLengthTargets grows every auto-filled Length reference target
// narrower than 4 bytes to a 4-byte field (2^32 capacity). Counter
// targets keep their width: item counts do not change under
// transformation, only byte sizes do.
func widenLengthTargets(g *graph.Graph) {
	targets := map[string]bool{}
	g.Walk(func(n *graph.Node) bool {
		if n.Boundary.Kind == graph.Length {
			targets[n.Boundary.Ref] = true
		}
		return true
	})
	for ref := range targets {
		t := g.FindOriginal(ref)
		if t != nil && t.Kind == graph.Terminal && t.Enc == graph.EncUint &&
			t.AutoFill && t.Boundary.Kind == graph.Fixed && t.Boundary.Size < 4 {
			t.Boundary.Size = 4
		}
	}
}

func selectCatalog(opts Options) ([]Transform, error) {
	catalog := Catalog()
	if len(opts.Only) > 0 {
		var out []Transform
		for _, name := range opts.Only {
			t := ByName(name)
			if t == nil {
				return nil, fmt.Errorf("transform: unknown transformation %q", name)
			}
			out = append(out, t)
		}
		catalog = out
	}
	if len(opts.Exclude) > 0 {
		excluded := make(map[string]bool, len(opts.Exclude))
		for _, name := range opts.Exclude {
			if ByName(name) == nil {
				return nil, fmt.Errorf("transform: unknown transformation %q", name)
			}
			excluded[name] = true
		}
		var out []Transform
		for _, t := range catalog {
			if !excluded[t.Name()] {
				out = append(out, t)
			}
		}
		catalog = out
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("transform: empty catalog after Only/Exclude selection")
	}
	return catalog, nil
}

// Trace renders the applied transformations, one per line.
func (r *Result) Trace() string {
	var b strings.Builder
	for _, a := range r.Applied {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CountByTransform aggregates applications per generic transformation.
func (r *Result) CountByTransform() map[string]int {
	out := make(map[string]int)
	for _, a := range r.Applied {
		out[a.Transform]++
	}
	return out
}
