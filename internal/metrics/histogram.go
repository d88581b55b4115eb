// Lock-free latency/size histograms for the runtime observability
// layer.
//
// A Histogram is a fixed array of power-of-two (log2) buckets of
// atomic counters: Observe costs two uncontended atomic adds and zero
// allocations, so it can sit directly on hot paths (a compile, an
// epoch crossing, a batch send). Snapshot copies the buckets into a
// plain-value HistogramStats, which renders as a proper Prometheus
// histogram family and answers coarse quantile queries (within one
// power of two) for bench reporting.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of log2 buckets in a Histogram. Bucket i
// counts observed values v with bits.Len64(v) == i: bucket 0 holds
// exactly v == 0, bucket i (i >= 1) holds 2^(i-1) <= v < 2^i. The
// layout covers the full uint64 range with no configuration and no
// overflow bucket — the last bucket's upper bound is MaxUint64.
const HistBuckets = 65

// Histogram is a lock-free, fixed-bucket log2 histogram. The zero
// value is ready to use. All fields are cumulative since process
// start; Histograms are never reset, callers diff two snapshots to
// measure an interval.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value. Two atomic adds, zero allocations.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records one duration in nanoseconds. Negative
// durations (a clock step mid-measurement) clamp to zero rather than
// wrapping into the top bucket.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Snapshot copies the histogram into a plain-value HistogramStats.
// Like the counter blocks, the copy is not atomic across buckets:
// concurrent observations may be partially visible, which consumers
// must tolerate (every bucket individually is monotonic). Count is
// derived from the buckets, so Count always equals the bucket total —
// the invariant the Prometheus +Inf bucket requires.
func (h *Histogram) Snapshot() HistogramStats {
	var s HistogramStats
	// Sum is loaded first: observers add to buckets before sum, so
	// within one snapshot Sum never exceeds what the counted
	// observations could have contributed.
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistogramStats is a Histogram at snapshot time. Buckets[i] is the
// count of values v with bits.Len64(v) == i (see HistBuckets); Count
// is the bucket total and Sum the running total of observed values.
type HistogramStats struct {
	Count   uint64
	Sum     uint64
	Buckets [HistBuckets]uint64
}

// BucketBound returns bucket i's inclusive upper bound: 0 for bucket
// 0, 2^i - 1 for bucket i (MaxUint64 for the last bucket).
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return (uint64(1) << uint(i)) - 1
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of
// the observed values: the upper bound of the first bucket at which
// the cumulative count reaches q*Count. The answer is exact to within
// one power of two — the resolution the log2 layout buys. Returns 0
// when the histogram is empty.
func (s HistogramStats) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(s.Count)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= need {
			return BucketBound(i)
		}
	}
	return BucketBound(HistBuckets - 1)
}

// Mean returns the arithmetic mean of observed values, or 0 before
// any observation.
func (s HistogramStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// LatencyCounters holds the session-layer latency histograms of one
// endpoint, in nanoseconds. The zero value is ready to use.
type LatencyCounters struct {
	// EpochBoundary times epoch-boundary crossings of stream and packet
	// sessions: from a session noticing its schedule moved to the new epoch's dialect
	// being installed (cache hit or demand compile included).
	EpochBoundary Histogram
	// RekeyRTT times the rekey handshake round trip: from sending a
	// rekey proposal to processing the peer's ack.
	RekeyRTT Histogram
	// ResumeRTT times the resume handshake round trip on the resuming
	// side: from sending the ticket to processing the acceptor's ack.
	ResumeRTT Histogram
}

// Snapshot copies the histograms into a LatencyStats.
func (c *LatencyCounters) Snapshot() LatencyStats {
	return LatencyStats{
		EpochBoundary: c.EpochBoundary.Snapshot(),
		RekeyRTT:      c.RekeyRTT.Snapshot(),
		ResumeRTT:     c.ResumeRTT.Snapshot(),
	}
}

// LatencyStats is one endpoint's session-layer latency distribution
// at snapshot time (all values nanoseconds).
type LatencyStats struct {
	EpochBoundary HistogramStats `prom:"protoobf_epoch_boundary_seconds" help:"Epoch-boundary crossing latency of stream and packet sessions (schedule tick to new dialect installed)."`
	RekeyRTT      HistogramStats `prom:"protoobf_rekey_rtt_seconds" help:"Rekey handshake round trip (proposal sent to ack processed)."`
	ResumeRTT     HistogramStats `prom:"protoobf_resume_rtt_seconds" help:"Resume handshake round trip on the resuming side (ticket sent to ack processed)."`
}
