package core

import (
	"protoobf/internal/artifact"
	"protoobf/internal/rng"
)

// loadArtifact tries to restore (family, epoch) from the artifact
// store. Store errors (corrupt file, key mismatch, I/O) are counted and
// degrade to a miss — the caller compiles instead.
func (r *Rotation) loadArtifact(k versionKey) (*Protocol, bool) {
	a, ok, err := r.art.Load(artifact.Key{SpecDigest: r.artDigest, Family: k.family, Epoch: k.epoch})
	if err != nil {
		r.stats.ArtifactErrors.Add(1)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	r.stats.ArtifactLoads.Add(1)
	seed := deriveSeed(k.family, k.epoch)
	// The Protocol of a restored version: the transformed graph from the
	// artifact, the shared plain graph as Original, and a fresh RNG from
	// the version seed. The transformation records (Applied) do not
	// survive serialization — only their product, the graph, does.
	return &Protocol{
		Original: r.orig,
		Graph:    a.Graph,
		Seed:     seed,
		rng:      rng.New(seed).Split(),
	}, true
}

// saveArtifact persists a freshly compiled version, best-effort: a
// failed save costs the fleet a recompile later, never correctness.
// The graph pointer is shared with the live Protocol, which is safe
// because graphs are immutable once compiled and Encode only reads.
func (r *Rotation) saveArtifact(k versionKey, p *Protocol) {
	if err := r.art.Save(&artifact.Artifact{
		Key:     artifact.Key{SpecDigest: r.artDigest, Family: k.family, Epoch: k.epoch},
		PerNode: r.opts.PerNode,
		Applied: len(p.Applied),
		Graph:   p.Graph,
	}); err != nil {
		r.stats.ArtifactErrors.Add(1)
		return
	}
	r.stats.ArtifactSaves.Add(1)
}
