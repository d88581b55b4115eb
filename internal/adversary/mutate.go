package adversary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"protoobf/internal/core"
	"protoobf/internal/frame"
	"protoobf/internal/rng"
	"protoobf/internal/session"
)

// Strategies names the wire mutation strategies, in campaign order.
var Strategies = []string{"bitflip", "lenlie", "truncate", "kindbyte", "splice", "reorder", "coverflood"}

// MutationConfig parameterizes the active-adversary campaign.
type MutationConfig struct {
	// PerNode is the obfuscation level of the session under attack
	// (default 2).
	PerNode int
	// Seed is the dialect-family seed.
	Seed int64
	// Frames is the length of the pristine baseline stream (default 12).
	Frames int
	// Cases is the number of mutated streams per strategy (default 48).
	Cases int
}

// MutationResult tallies one campaign: every case must either decode
// (the mutation was semantically invisible to the transport — a reorder
// within an epoch, a flip inside an End-bounded pad) or be rejected
// with an error; a crash is a harness failure.
type MutationResult struct {
	Total   int            `json:"total"`
	Crashes int            `json:"crashes"`
	Decoded int            `json:"decoded"`
	Rejects map[string]int `json:"rejects"`
}

// Rejected is the total count of cleanly rejected cases.
func (r *MutationResult) Rejected() int {
	n := 0
	for _, v := range r.Rejects {
		n += v
	}
	return n
}

// discardWriter adapts the mutated byte stream into the io.ReadWriter a
// session receiver expects; the receiver's own writes vanish.
type discardWriter struct{ io.Reader }

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// RunMutations builds a pristine frame stream from a live sender, then
// feeds deterministically mutated copies through a fresh session
// receiver's Recv path, classifying every outcome. The receiver speaks
// the same dialect family, so rejections measure the transport's own
// robustness, not a family mismatch.
func RunMutations(cfg MutationConfig) (*MutationResult, error) {
	if cfg.PerNode <= 0 {
		cfg.PerNode = 2
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 12
	}
	if cfg.Cases <= 0 {
		cfg.Cases = 48
	}
	opts := core.ObfuscationOptions{PerNode: cfg.PerNode, Seed: cfg.Seed}
	rotTx, err := core.NewRotation(Spec, opts)
	if err != nil {
		return nil, err
	}
	rotRx, err := core.NewRotation(Spec, opts)
	if err != nil {
		return nil, err
	}
	frames, err := baselineFrames(rotTx, cfg.Frames, cfg.Seed)
	if err != nil {
		return nil, err
	}

	res := &MutationResult{Rejects: map[string]int{}}
	r := rng.New(cfg.Seed ^ 0x5ADBEEF)
	for _, strategy := range Strategies {
		for c := 0; c < cfg.Cases; c++ {
			stream := Mutate(frames, strategy, r)
			outcome, reason := feed(rotRx, stream, len(frames))
			res.Total++
			switch outcome {
			case outcomeCrash:
				res.Crashes++
			case outcomeDecoded:
				res.Decoded++
			default:
				res.Rejects[reason]++
			}
		}
	}
	return res, nil
}

// baselineFrames sends n telemetry messages through a real session into
// a buffer and splits the wire bytes at the frame boundaries.
func baselineFrames(rot *core.Rotation, n int, seed int64) ([][]byte, error) {
	var buf bytes.Buffer
	tx, err := session.NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), &buf}, rot.View(), session.Options{})
	if err != nil {
		return nil, err
	}
	defer tx.Release()
	r := rng.New(seed)
	var frames [][]byte
	prev := 0
	for i := 0; i < n; i++ {
		m, err := tx.NewMessage()
		if err != nil {
			return nil, err
		}
		if err := SetTelemetry(m, uint64(r.Intn(1<<8)), uint64(i), StatusBytes(r)); err != nil {
			return nil, err
		}
		if err := tx.Send(m); err != nil {
			return nil, err
		}
		frames = append(frames, append([]byte(nil), buf.Bytes()[prev:]...))
		prev = buf.Len()
	}
	return frames, nil
}

// Mutate applies one named strategy to a copy of the baseline frames
// and returns the mutated byte stream. Unknown strategies return the
// stream unmodified.
func Mutate(frames [][]byte, strategy string, r *rng.R) []byte {
	cp := make([][]byte, len(frames))
	for i, f := range frames {
		cp[i] = append([]byte(nil), f...)
	}
	switch strategy {
	case "bitflip":
		f := cp[r.Intn(len(cp))]
		f[r.Intn(len(f))] ^= 1 << r.Intn(8)
	case "lenlie":
		// Rewrite the 24-bit length field, keeping the kind byte: the
		// header now promises a payload the stream does not carry.
		f := cp[r.Intn(len(cp))]
		word := binary.BigEndian.Uint32(f[:4])
		lie := uint32(r.Intn(frame.MaxFrame + 2))
		binary.BigEndian.PutUint32(f[:4], word&0xFF000000|lie&0x00FFFFFF)
	case "kindbyte":
		cp[r.Intn(len(cp))][0] = byte(r.Intn(256))
	case "reorder":
		i, j := r.Intn(len(cp)), r.Intn(len(cp))
		cp[i], cp[j] = cp[j], cp[i]
	case "splice":
		// Foreign bytes at a frame boundary: the stream desynchronizes
		// unless the splice happens to parse.
		at := r.Intn(len(cp) + 1)
		garbage := r.Bytes(1 + r.Intn(24))
		rest := append([][]byte{garbage}, cp[at:]...)
		cp = append(cp[:at:at], rest...)
	case "coverflood":
		// A burst of well-formed cover frames at a frame boundary: every
		// receiver must silently discard each one and keep decoding the
		// real stream — the cover contract under active injection.
		at := r.Intn(len(cp) + 1)
		var burst [][]byte
		for i, n := 0, 1+r.Intn(6); i < n; i++ {
			payload := r.Bytes(r.Intn(64))
			cover := make([]byte, frame.EpochHeaderLen+len(payload))
			if err := frame.EncodeHeader(cover[:frame.EpochHeaderLen], frame.KindCover, 0, len(payload)); err != nil {
				panic(err) // 0..63-byte payloads always encode
			}
			copy(cover[frame.EpochHeaderLen:], payload)
			burst = append(burst, cover)
		}
		rest := append(burst, cp[at:]...)
		cp = append(cp[:at:at], rest...)
	}
	stream := bytes.Join(cp, nil)
	if strategy == "truncate" {
		stream = stream[:r.Intn(len(stream))]
	}
	return stream
}

const (
	outcomeDecoded = iota
	outcomeRejected
	outcomeCrash
)

// feed drives one mutated stream through a fresh receiver's Recv until
// the stream errors or every expected message decoded. A panic anywhere
// under Recv is the crash the campaign exists to rule out.
func feed(rot *core.Rotation, stream []byte, want int) (outcome int, reason string) {
	defer func() {
		if p := recover(); p != nil {
			outcome, reason = outcomeCrash, fmt.Sprintf("panic: %v", p)
		}
	}()
	rx, err := session.NewConn(discardWriter{bytes.NewReader(stream)}, rot.View(), session.Options{})
	if err != nil {
		return outcomeRejected, "setup"
	}
	defer rx.Release()
	for n := 0; n < want; n++ {
		if _, err := rx.Recv(); err != nil {
			return outcomeRejected, rejectReason(err)
		}
	}
	return outcomeDecoded, ""
}

// rejectReason buckets a Recv error into the campaign's reject
// taxonomy. Buckets are coarse on purpose: they are trajectory labels,
// not an error-message contract.
func rejectReason(err error) string {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return "truncated"
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "exceeds limit"):
		return "frame-header"
	case strings.Contains(msg, "ahead of current"):
		return "epoch-bound"
	case strings.Contains(msg, "unknown frame kind"):
		return "unknown-kind"
	case strings.Contains(msg, "control"), strings.Contains(msg, "rekey"), strings.Contains(msg, "resume"):
		return "control"
	case strings.Contains(msg, "session: epoch"):
		return "parse"
	default:
		return "other"
	}
}
