package adversary

import (
	"protoobf/internal/core"
	"protoobf/internal/stats"
)

// CovertEstimate bounds the covert channel the dialect choice itself
// opens: an insider who can pick which epoch version a message is
// serialized under leaks up to Bits per message to an observer who can
// replay the known plaintext against the family's versions. Bits is the
// Shannon entropy of the wire-encoding distribution of one fixed
// message across Epochs consecutive versions; MaxBits = log2(Epochs) is
// the ceiling reached when every version encodes it distinctly.
type CovertEstimate struct {
	PerNode  int     `json:"per_node"`
	Epochs   int     `json:"epochs"`
	Distinct int     `json:"distinct_encodings"`
	Bits     float64 `json:"bits"`
	MaxBits  float64 `json:"max_bits"`
}

// CovertCapacity serializes one fixed message under each of the first
// epochs versions of the (Spec, perNode, seed) family and measures the
// entropy of the resulting encoding distribution. At perNode 0 every
// version is the unobfuscated grammar, the encodings collide and the
// channel carries 0 bits — the calibration point.
func CovertCapacity(perNode, epochs int, seed int64) (CovertEstimate, error) {
	if epochs <= 0 {
		epochs = 32
	}
	rot, err := core.NewRotation(Spec, core.ObfuscationOptions{PerNode: perNode, Seed: seed})
	if err != nil {
		return CovertEstimate{}, err
	}
	counts := map[string]float64{}
	for e := 0; e < epochs; e++ {
		p, err := rot.Version(uint64(e))
		if err != nil {
			return CovertEstimate{}, err
		}
		wire, err := serializeProbe(p)
		if err != nil {
			return CovertEstimate{}, err
		}
		counts[string(wire)]++
	}
	hist := make([]float64, 0, len(counts))
	for _, c := range counts {
		hist = append(hist, c)
	}
	return CovertEstimate{
		PerNode:  perNode,
		Epochs:   epochs,
		Distinct: len(counts),
		Bits:     stats.Entropy(hist),
		MaxBits:  log2(epochs),
	}, nil
}

// serializeProbe renders the fixed probe message under one version.
func serializeProbe(p *core.Protocol) ([]byte, error) {
	m := p.NewMessage()
	if err := SetTelemetry(m, 7, 1234, []byte("steady")); err != nil {
		return nil, err
	}
	return p.Serialize(m)
}

// log2 is the integer-argument convenience over math.Log2 used by the
// capacity ceiling.
func log2(n int) float64 {
	return stats.Entropy(uniform(n))
}

// uniform returns n equal counts: its entropy is exactly log2(n).
func uniform(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
