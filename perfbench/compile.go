package main

import (
	"fmt"

	"protoobf/internal/core"
	"protoobf/internal/rng"
	"protoobf/internal/spec"
	"protoobf/internal/transform"
)

// compileSample is how many dialect seeds the compile-pipeline probe
// times per spec. The seeds are fixed: per-dialect compile cost ranges
// over an order of magnitude with the seed, so a sample that moved
// between runs would move the numbers.
const compileSample = 8

type compileCost struct {
	compileUs, parseUs, obfuscateUs float64
	acceptRatio, nodes              float64
}

// probeCompile times the compile pipeline from outside, on a fixed
// sample of seeds for each spec: core.Compile end to end, and its two
// stages spec.Parse and transform.Obfuscate on their own.
func probeCompile(specs []string, familySeed int64) (compileCost, error) {
	var c compileCost
	var applied, rejected, n int
	for _, src := range specs {
		for i := 0; i < compileSample; i++ {
			seed := mix(familySeed, int64(1000+i))
			t := nanotime()
			if _, err := core.Compile(src, core.ObfuscationOptions{PerNode: perNode, Seed: seed}); err != nil {
				return c, fmt.Errorf("compile: %w", err)
			}
			c.compileUs += float64(nanotime() - t)

			t = nanotime()
			g, err := spec.Parse(src)
			c.parseUs += float64(nanotime() - t)
			if err != nil {
				return c, fmt.Errorf("parse: %w", err)
			}
			t = nanotime()
			res, err := transform.Obfuscate(g, transform.Options{PerNode: perNode}, rng.New(seed))
			c.obfuscateUs += float64(nanotime() - t)
			if err != nil {
				return c, fmt.Errorf("obfuscate: %w", err)
			}
			applied += len(res.Applied)
			rejected += res.Rejected
			c.nodes += float64(res.Graph.NodeCount())
			n++
		}
	}
	c.compileUs /= float64(n) * 1e3
	c.parseUs /= float64(n) * 1e3
	c.obfuscateUs /= float64(n) * 1e3
	c.nodes /= float64(n)
	if applied+rejected > 0 {
		c.acceptRatio = float64(applied) / float64(applied+rejected)
	}
	return c, nil
}
