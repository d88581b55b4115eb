package graph

import (
	"sync"
	"testing"
)

func TestPlanResolvesReferences(t *testing.T) {
	g := sampleGraph(t)
	p := g.Plan()
	for _, c := range []struct {
		dep, target string
		depth       int
	}{
		{"payload", "plen", 0}, // a sibling in the root scope
		{"items", "cnt", 1},    // a sibling inside payload
		{"maybe", "kind", 0},   // climbs out of payload to the root
	} {
		r := p.Ref(g.Find(c.dep))
		if r.Target != g.Find(c.target) || r.Depth != c.depth {
			t.Errorf("%s: reference resolves to %v at depth %d, want %s at %d", c.dep, r.Target, r.Depth, c.target, c.depth)
		}
	}
	if r := p.Ref(g.Find("magic")); r.Target != nil {
		t.Errorf("magic has no reference, plan resolves it to %v", r.Target)
	}
	if l, r := p.Halves(g.Find("payload")); l != nil || r != nil {
		t.Errorf("payload is not split, plan gives halves %v, %v", l, r)
	}
	// msg > payload > items (or hdrs > hdr) > a terminal.
	if h := p.Height(); h != 3 {
		t.Errorf("Height = %d, want 3", h)
	}
}

func TestPlanLifetime(t *testing.T) {
	g := sampleGraph(t)
	p := g.Plan()
	if g.Plan() != p {
		t.Fatal("a second call derived the plan again")
	}
	c := g.Clone()
	if c.plan.Load() != nil {
		t.Fatal("Clone copied the plan")
	}
	if c.Plan() == p {
		t.Fatal("a clone shares its original's plan")
	}
	g.Rebuild()
	if g.Plan() == p {
		t.Fatal("Rebuild kept the plan of the old structure")
	}
}

// TestPlanConcurrentFirstUse derives one graph's plan from several
// goroutines at once, as sessions sharing a dialect do on its first
// messages. Run under -race.
func TestPlanConcurrentFirstUse(t *testing.T) {
	g := sampleGraph(t)
	const workers = 8
	plans := make([]*Plan, workers)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := g.Plan()
			p.Ref(g.Find("items"))
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for _, p := range plans[1:] {
		if p != plans[0] {
			t.Fatal("concurrent first calls derived different plans")
		}
	}
}
