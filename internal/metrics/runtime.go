// Runtime observability counters for the rotation control plane.
//
// The static half of this package computes the paper's potency metrics
// on generated source; this half counts what the running system does:
// dialect compiles, version-cache traffic, prefetch lead, rekeys. The
// counter blocks are plain structs of atomic.Uint64 so the hot paths
// (a cache Get, a compile) pay one uncontended atomic add and zero
// allocations; Snapshot methods copy the counters into plain-value
// stats structs for callers that render or assert on them.
package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// CacheCounters counts one cache shard's traffic. The zero value is
// ready to use. All fields are cumulative since process start.
type CacheCounters struct {
	Hits      atomic.Uint64
	Misses    atomic.Uint64
	Evictions atomic.Uint64
}

// Snapshot copies the counters into a plain-value stats struct. The
// copy is not atomic across fields: concurrent traffic may be counted
// in one field and not yet in another, which consumers must tolerate
// (each field individually is monotonic).
func (c *CacheCounters) Snapshot() CacheShardStats {
	return CacheShardStats{
		Hits:      c.Hits.Load(),
		Misses:    c.Misses.Load(),
		Evictions: c.Evictions.Load(),
	}
}

// CacheShardStats is the traffic of one cache shard at snapshot time.
type CacheShardStats struct {
	Hits      uint64 `prom:"protoobf_cache_shard_hits_total" help:"Version cache hits by shard."`
	Misses    uint64 `prom:"protoobf_cache_shard_misses_total" help:"Version cache misses by shard."`
	Evictions uint64
}

// CacheStats aggregates a sharded cache at snapshot time: totals across
// shards, the live geometry, and the per-shard breakdown (balance
// inspection — a hot shard shows up as one outlier row).
type CacheStats struct {
	Hits      uint64 `prom:"protoobf_cache_hits_total" help:"Version cache hits."`
	Misses    uint64 `prom:"protoobf_cache_misses_total" help:"Version cache misses."`
	Evictions uint64 `prom:"protoobf_cache_evictions_total" help:"Version cache evictions."`
	// Len is the entries cached now, Cap the configured bound (<= 0
	// means unbounded) and Shards the construction-time shard count.
	Len      int `prom:"protoobf_cache_entries" help:"Compiled versions cached now."`
	Cap      int `prom:"protoobf_cache_capacity" help:"Configured version cache bound (0 = unbounded)."`
	Shards   int
	PerShard []CacheShardStats `prom:",shard"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before any traffic.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// RotationCounters counts the compile activity of one dialect family.
// The zero value is ready to use.
type RotationCounters struct {
	// Compiles counts actual Compile invocations (cache misses that did
	// the work), including those attributed to a prefetcher.
	Compiles atomic.Uint64
	// PrefetchCompiles is the subset of Compiles initiated by a
	// prefetch daemon rather than a session on its hot path.
	PrefetchCompiles atomic.Uint64
	// CompileDedup counts lookups that piggybacked on an in-flight
	// compile of the same version instead of burning their own — the
	// singleflight wins at an epoch boundary.
	CompileDedup atomic.Uint64
	// CompileErrors counts compiles that failed.
	CompileErrors atomic.Uint64
	// Rekeys counts rekey points applied across all views.
	Rekeys atomic.Uint64
	// RekeyRollbacks counts rekey points dropped again because the
	// handshake step that should have committed them failed.
	RekeyRollbacks atomic.Uint64
	// ArtifactLoads counts versions restored from a serialized-artifact
	// store instead of compiled — the cross-process compile shares.
	ArtifactLoads atomic.Uint64
	// ArtifactSaves counts compiled versions persisted to the store.
	ArtifactSaves atomic.Uint64
	// ArtifactErrors counts store loads or saves that failed; the
	// rotation falls back to compiling, so these cost time, not
	// correctness.
	ArtifactErrors atomic.Uint64
	// DemandCompileNanos is the duration distribution of compiles paid
	// for by a session on its hot path; PrefetchCompileNanos the
	// distribution of compiles a prefetch daemon ran ahead of need.
	// Artifact-store loads are not included — they are loads, not
	// compiles.
	DemandCompileNanos   Histogram
	PrefetchCompileNanos Histogram
}

// Snapshot copies the counters into a RotationStats (without cache
// stats; the owner fills those in from its cache). PrefetchCompiles is
// loaded before Compiles: writers bump Compiles first, so this order
// guarantees Compiles >= PrefetchCompiles within one snapshot and
// DemandCompiles can never underflow under concurrent prefetching.
func (c *RotationCounters) Snapshot() RotationStats {
	prefetch := c.PrefetchCompiles.Load()
	return RotationStats{
		Compiles:             c.Compiles.Load(),
		PrefetchCompiles:     prefetch,
		CompileDedup:         c.CompileDedup.Load(),
		CompileErrors:        c.CompileErrors.Load(),
		Rekeys:               c.Rekeys.Load(),
		RekeyRollbacks:       c.RekeyRollbacks.Load(),
		ArtifactLoads:        c.ArtifactLoads.Load(),
		ArtifactSaves:        c.ArtifactSaves.Load(),
		ArtifactErrors:       c.ArtifactErrors.Load(),
		DemandCompileNanos:   c.DemandCompileNanos.Snapshot(),
		PrefetchCompileNanos: c.PrefetchCompileNanos.Snapshot(),
	}
}

// RotationStats is one dialect family's compile activity at snapshot
// time.
type RotationStats struct {
	Compiles             uint64         `prom:"protoobf_rotation_compiles_total" help:"Dialect compiles performed (demand and prefetch)."`
	PrefetchCompiles     uint64         `prom:"protoobf_rotation_prefetch_compiles_total" help:"Dialect compiles performed ahead of need by a prefetch daemon."`
	CompileDedup         uint64         `prom:"protoobf_rotation_compile_dedup_total" help:"Version lookups that joined an in-flight compile instead of burning their own."`
	CompileErrors        uint64         `prom:"protoobf_rotation_compile_errors_total" help:"Dialect compiles that failed."`
	Rekeys               uint64         `prom:"protoobf_rotation_rekeys_total" help:"Rekey points applied across all session views."`
	RekeyRollbacks       uint64         `prom:"protoobf_rotation_rekey_rollbacks_total" help:"Rekey points rolled back after a failed handshake commit."`
	ArtifactLoads        uint64         `prom:"protoobf_artifact_loads_total" help:"Dialect versions restored from the serialized-artifact store instead of compiled."`
	ArtifactSaves        uint64         `prom:"protoobf_artifact_saves_total" help:"Compiled dialect versions persisted to the artifact store."`
	ArtifactErrors       uint64         `prom:"protoobf_artifact_errors_total" help:"Artifact store loads or saves that failed (the rotation fell back to compiling)."`
	DemandCompileNanos   HistogramStats `prom:"protoobf_compile_demand_seconds" help:"Duration of dialect compiles paid for on a session hot path."`
	PrefetchCompileNanos HistogramStats `prom:"protoobf_compile_prefetch_seconds" help:"Duration of dialect compiles run ahead of need by a prefetch daemon."`
	Cache                CacheStats
}

// DemandCompiles returns the compiles a session paid for on its hot
// path — total compiles minus those a prefetcher performed ahead of
// need. This is the number an epoch-boundary prefetcher exists to keep
// at zero.
func (s RotationStats) DemandCompiles() uint64 {
	return s.Compiles - s.PrefetchCompiles
}

// PrefetchCounters counts a prefetch daemon's work. The zero value is
// ready to use.
type PrefetchCounters struct {
	// Cycles counts completed prefetch passes (one per epoch boundary
	// the daemon woke for, plus the priming pass at start).
	Cycles atomic.Uint64
	// Compiled counts versions the daemon compiled strictly before
	// their epoch began.
	Compiled atomic.Uint64
	// Warm counts versions the daemon targeted that were already
	// compiled (a previous pass, or a session got there first).
	Warm atomic.Uint64
	// Late counts versions whose epoch had already begun by the time
	// the daemon finished with them (including compiles that straddled
	// their boundary) — a prefetch miss: sessions may have paid or
	// joined the compile on their hot path.
	Late atomic.Uint64
	// Errors counts prefetch compiles that failed.
	Errors atomic.Uint64
}

// Snapshot copies the counters into a PrefetchStats.
func (c *PrefetchCounters) Snapshot() PrefetchStats {
	return PrefetchStats{
		Cycles:   c.Cycles.Load(),
		Compiled: c.Compiled.Load(),
		Warm:     c.Warm.Load(),
		Late:     c.Late.Load(),
		Errors:   c.Errors.Load(),
	}
}

// PrefetchStats is a prefetch daemon's work at snapshot time.
type PrefetchStats struct {
	Cycles   uint64 `prom:"protoobf_prefetch_cycles_total" help:"Completed prefetch passes."`
	Compiled uint64 `prom:"protoobf_prefetch_compiled_total" help:"Versions compiled strictly before their epoch began."`
	Warm     uint64 `prom:"protoobf_prefetch_warm_total" help:"Prefetch targets already compiled when the daemon reached them."`
	Late     uint64 `prom:"protoobf_prefetch_late_total" help:"Prefetch targets whose epoch began before the daemon finished with them."`
	Errors   uint64 `prom:"protoobf_prefetch_errors_total" help:"Prefetch compiles that failed."`
}

// Lead returns the versions that were ready before their epoch began
// (compiled by the daemon or already warm) — the prefetch hits.
func (s PrefetchStats) Lead() uint64 { return s.Compiled + s.Warm }

// ResumeCounters counts the session migration subsystem's activity on
// one endpoint: resumption tickets minted, and resume attempts the
// acceptor side admitted or turned away (split by why). The zero value
// is ready to use.
type ResumeCounters struct {
	// TicketsIssued counts resumption tickets exported by sessions of
	// this endpoint.
	TicketsIssued atomic.Uint64
	// Accepts counts resume handshakes the acceptor side completed: the
	// ticket verified, its lineage was adopted, and the ack was sent.
	Accepts atomic.Uint64
	// RejectedForged counts tickets that failed verification: a bad seal
	// tag, an unparseable state, or a header epoch that contradicts the
	// sealed one.
	RejectedForged atomic.Uint64
	// RejectedExpired counts tickets whose epoch fell outside the resume
	// window — too far behind the acceptor's current epoch, or
	// implausibly far ahead of it.
	RejectedExpired atomic.Uint64
	// RejectedState counts resumes the acceptor could not honor
	// regardless of the ticket: a session that already moved traffic or
	// rekeyed, a second resume on a resumed session, or a versioner
	// without ticket support.
	RejectedState atomic.Uint64
	// RejectedReplayed counts authentic tickets turned away because a
	// replay cache had already seen them — tickets are single-use once
	// an endpoint (or fleet) enables the cache.
	RejectedReplayed atomic.Uint64
}

// Snapshot copies the counters into a ResumeStats.
func (c *ResumeCounters) Snapshot() ResumeStats {
	return ResumeStats{
		TicketsIssued:    c.TicketsIssued.Load(),
		Accepts:          c.Accepts.Load(),
		RejectedForged:   c.RejectedForged.Load(),
		RejectedExpired:  c.RejectedExpired.Load(),
		RejectedState:    c.RejectedState.Load(),
		RejectedReplayed: c.RejectedReplayed.Load(),
	}
}

// ResumeStats is one endpoint's session-migration activity at snapshot
// time.
type ResumeStats struct {
	TicketsIssued    uint64 `prom:"protoobf_resume_tickets_issued_total" help:"Resumption tickets exported by sessions of this endpoint."`
	Accepts          uint64 `prom:"protoobf_resume_accepts_total" help:"Resume handshakes accepted."`
	RejectedForged   uint64 `prom:"protoobf_resume_rejects_total,reason=forged" help:"Resume handshakes rejected, by reason."`
	RejectedExpired  uint64 `prom:"protoobf_resume_rejects_total,reason=expired"`
	RejectedState    uint64 `prom:"protoobf_resume_rejects_total,reason=state"`
	RejectedReplayed uint64 `prom:"protoobf_resume_rejects_total,reason=replay"`
}

// Rejects returns the total resume attempts turned away, across every
// rejection reason.
func (s ResumeStats) Rejects() uint64 {
	return s.RejectedForged + s.RejectedExpired + s.RejectedState + s.RejectedReplayed
}

// ShapeCounters counts the traffic-shaping layer's activity on one
// endpoint: frames morphed, pad volume, injected delay, cover traffic
// in both directions, and the receive-side rejects the shaper and the
// kind validator produce. The zero value is ready to use.
type ShapeCounters struct {
	// ShapedFrames counts data frames written through the shaper,
	// fragments included.
	ShapedFrames atomic.Uint64
	// Fragments counts the extra frames MTU splitting produced beyond
	// one per message.
	Fragments atomic.Uint64
	// PadBytes counts pad bytes appended to shaped frames (the shaping
	// trailer itself not included).
	PadBytes atomic.Uint64
	// DelayNanos accumulates the inter-frame jitter the pacer injected,
	// in nanoseconds.
	DelayNanos atomic.Uint64
	// CoverSent counts cover (decoy) frames this side emitted.
	CoverSent atomic.Uint64
	// CoverDropped counts cover frames received and silently discarded —
	// every session counts these, shaped or not.
	CoverDropped atomic.Uint64
	// UnshapeRejects counts received data frames whose shaping trailer
	// failed validation (short frame, reserved flags, bad overhead claim,
	// fragment epoch mismatch, oversized reassembly).
	UnshapeRejects atomic.Uint64
	// UnknownKindRejects counts frames rejected for carrying an
	// unassigned kind byte (above frame.KindMax).
	UnknownKindRejects atomic.Uint64
	// DelayHist is the per-frame distribution of the injected pacing
	// delay, in nanoseconds (DelayNanos is its running sum plus any
	// delay injected outside shaped data frames).
	DelayHist Histogram
}

// Snapshot copies the counters into a ShapeStats.
func (c *ShapeCounters) Snapshot() ShapeStats {
	return ShapeStats{
		ShapedFrames:       c.ShapedFrames.Load(),
		Fragments:          c.Fragments.Load(),
		PadBytes:           c.PadBytes.Load(),
		DelayNanos:         c.DelayNanos.Load(),
		CoverSent:          c.CoverSent.Load(),
		CoverDropped:       c.CoverDropped.Load(),
		UnshapeRejects:     c.UnshapeRejects.Load(),
		UnknownKindRejects: c.UnknownKindRejects.Load(),
		DelayHist:          c.DelayHist.Snapshot(),
	}
}

// ShapeStats is one endpoint's traffic-shaping activity at snapshot
// time.
type ShapeStats struct {
	ShapedFrames       uint64         `prom:"protoobf_shape_frames_total" help:"Data frames morphed by the traffic shaper (fragments included)."`
	Fragments          uint64         `prom:"protoobf_shape_fragments_total" help:"Extra frames produced by MTU splitting."`
	PadBytes           uint64         `prom:"protoobf_shape_pad_bytes_total" help:"Pad bytes appended to shaped frames."`
	DelayNanos         uint64         `prom:"protoobf_shape_delay_ns_total" help:"Inter-frame jitter injected by the pacer, in nanoseconds."`
	CoverSent          uint64         `prom:"protoobf_shape_cover_sent_total" help:"Cover (decoy) frames emitted."`
	CoverDropped       uint64         `prom:"protoobf_shape_cover_dropped_total" help:"Cover frames received and silently discarded."`
	UnshapeRejects     uint64         `prom:"protoobf_shape_rejects_total,reason=unshape" help:"Receive-side shaping rejects, by reason."`
	UnknownKindRejects uint64         `prom:"protoobf_shape_rejects_total,reason=unknown-kind"`
	DelayHist          HistogramStats `prom:"protoobf_shape_delay_seconds" help:"Per-frame pacing delay injected by the traffic shaper."`
}

// DgramCounters counts the datagram session layer's activity on one
// endpoint: packets moved, control traffic, the epoch-window rejects
// that replace the stream layer's follow rule, and the idempotent-rekey
// bookkeeping. The zero value is ready to use.
type DgramCounters struct {
	// DataSent counts data packets sent.
	DataSent atomic.Uint64
	// DataRecv counts data packets received and decoded.
	DataRecv atomic.Uint64
	// ZeroOverheadSent is the subset of DataSent that left with zero
	// added bytes (zero-overhead mode): the packet on the wire is
	// exactly the obfuscated payload, prefix-masked in place.
	ZeroOverheadSent atomic.Uint64
	// DataWireBytes counts the wire bytes of data packets sent;
	// DataPayloadBytes counts their serialized-payload bytes. The
	// difference is the framing overhead the session added — per
	// packet, 12 in normal mode and exactly 0 in zero-overhead mode,
	// which is how benches prove the mode's claim instead of assuming
	// it.
	DataWireBytes    atomic.Uint64
	DataPayloadBytes atomic.Uint64
	// ControlSent counts control packets sent (rekey proposes, covers).
	ControlSent atomic.Uint64
	// CoverSent counts cover (decoy) packets emitted.
	CoverSent atomic.Uint64
	// CoverDropped counts cover packets received and silently discarded —
	// every receiver counts these, zero-overhead or not.
	CoverDropped atomic.Uint64
	// RekeysApplied counts rekey control packets that switched the
	// dialect family (the first copy of each redundant burst).
	RekeysApplied atomic.Uint64
	// RekeyDups counts redundant or replayed rekey control packets
	// discarded because their boundary was already applied — the
	// idempotence that makes lossy-link rekey redundancy safe.
	RekeyDups atomic.Uint64
	// RejectedStale counts packets dropped for an epoch more than the
	// window behind the receive horizon.
	RejectedStale atomic.Uint64
	// RejectedFuture counts packets dropped for an epoch more than the
	// window ahead of the receive horizon.
	RejectedFuture atomic.Uint64
	// RejectedParse counts packets whose payload decoded under no
	// candidate epoch's dialect (corruption, loss-truncation, or a
	// zero-overhead packet from outside the window).
	RejectedParse atomic.Uint64
	// RejectedMalformed counts packets rejected before parsing: short
	// header, length exceeding the packet, unknown frame kind.
	RejectedMalformed atomic.Uint64
	// SendBatchSizes and RecvBatchSizes are the distribution of batch
	// sizes moved per SendBatch/RecvBatch call (packets staged per
	// send, packets drained per receive) — how benches see whether the
	// batching extensions actually amortize.
	SendBatchSizes Histogram
	RecvBatchSizes Histogram
}

// Snapshot copies the counters into a DgramStats.
func (c *DgramCounters) Snapshot() DgramStats {
	return DgramStats{
		DataSent:          c.DataSent.Load(),
		DataRecv:          c.DataRecv.Load(),
		ZeroOverheadSent:  c.ZeroOverheadSent.Load(),
		DataWireBytes:     c.DataWireBytes.Load(),
		DataPayloadBytes:  c.DataPayloadBytes.Load(),
		ControlSent:       c.ControlSent.Load(),
		CoverSent:         c.CoverSent.Load(),
		CoverDropped:      c.CoverDropped.Load(),
		RekeysApplied:     c.RekeysApplied.Load(),
		RekeyDups:         c.RekeyDups.Load(),
		RejectedStale:     c.RejectedStale.Load(),
		RejectedFuture:    c.RejectedFuture.Load(),
		RejectedParse:     c.RejectedParse.Load(),
		RejectedMalformed: c.RejectedMalformed.Load(),
		SendBatchSizes:    c.SendBatchSizes.Snapshot(),
		RecvBatchSizes:    c.RecvBatchSizes.Snapshot(),
	}
}

// DgramStats is one endpoint's datagram-session activity at snapshot
// time.
type DgramStats struct {
	DataSent          uint64         `prom:"protoobf_dgram_data_sent_total" help:"Datagram data packets sent."`
	DataRecv          uint64         `prom:"protoobf_dgram_data_recv_total" help:"Datagram data packets received and decoded."`
	ZeroOverheadSent  uint64         `prom:"protoobf_dgram_zero_overhead_sent_total" help:"Data packets sent with zero added bytes (zero-overhead mode)."`
	DataWireBytes     uint64         `prom:"protoobf_dgram_data_wire_bytes_total" help:"Wire bytes of datagram data packets sent."`
	DataPayloadBytes  uint64         `prom:"protoobf_dgram_data_payload_bytes_total" help:"Serialized-payload bytes of datagram data packets sent (wire minus payload is framing overhead)."`
	ControlSent       uint64         `prom:"protoobf_dgram_control_sent_total" help:"Datagram control packets sent (rekey proposes, covers)."`
	CoverSent         uint64         `prom:"protoobf_dgram_cover_sent_total" help:"Datagram cover (decoy) packets emitted."`
	CoverDropped      uint64         `prom:"protoobf_dgram_cover_dropped_total" help:"Datagram cover packets received and silently discarded."`
	RekeysApplied     uint64         `prom:"protoobf_dgram_rekeys_applied_total" help:"Datagram rekey control packets that switched the dialect family."`
	RekeyDups         uint64         `prom:"protoobf_dgram_rekey_dups_total" help:"Redundant or replayed rekey control packets discarded idempotently."`
	RejectedStale     uint64         `prom:"protoobf_dgram_rejects_total,reason=stale" help:"Datagram packets rejected, by reason."`
	RejectedFuture    uint64         `prom:"protoobf_dgram_rejects_total,reason=future"`
	RejectedParse     uint64         `prom:"protoobf_dgram_rejects_total,reason=parse"`
	RejectedMalformed uint64         `prom:"protoobf_dgram_rejects_total,reason=malformed"`
	SendBatchSizes    HistogramStats `prom:"protoobf_dgram_send_batch_size" help:"Packets staged per datagram SendBatch call."`
	RecvBatchSizes    HistogramStats `prom:"protoobf_dgram_recv_batch_size" help:"Packets drained per datagram RecvBatch call."`
}

// Rejects returns the total packets turned away, across every reject
// reason.
func (s DgramStats) Rejects() uint64 {
	return s.RejectedStale + s.RejectedFuture + s.RejectedParse + s.RejectedMalformed
}

// OverheadBytes returns the total framing bytes data packets added on
// the wire beyond their serialized payloads — 12 per packet in normal
// mode, 0 in zero-overhead mode.
func (s DgramStats) OverheadBytes() uint64 {
	return s.DataWireBytes - s.DataPayloadBytes
}

// Snapshot is the top-level observability snapshot of one endpoint:
// its dialect family's compile/cache activity and its prefetch
// daemon's work. Snapshots are plain values — diff two to measure an
// interval.
type Snapshot struct {
	Rotation RotationStats
	Prefetch PrefetchStats
	Resume   ResumeStats
	Shape    ShapeStats
	Dgram    DgramStats
	Latency  LatencyStats
}

// String renders the snapshot as an indented block, the format the
// bench tool's -metrics flag prints.
func (s Snapshot) String() string {
	var sb strings.Builder
	r := s.Rotation
	fmt.Fprintf(&sb, "rotation: compiles=%d (demand=%d prefetch=%d) dedup=%d errors=%d rekeys=%d rollbacks=%d\n",
		r.Compiles, r.DemandCompiles(), r.PrefetchCompiles, r.CompileDedup, r.CompileErrors, r.Rekeys, r.RekeyRollbacks)
	fmt.Fprintf(&sb, "artifact: loads=%d saves=%d errors=%d\n",
		r.ArtifactLoads, r.ArtifactSaves, r.ArtifactErrors)
	c := r.Cache
	fmt.Fprintf(&sb, "cache:    hits=%d misses=%d evictions=%d hit-rate=%.3f len=%d cap=%d shards=%d\n",
		c.Hits, c.Misses, c.Evictions, c.HitRate(), c.Len, c.Cap, c.Shards)
	p := s.Prefetch
	fmt.Fprintf(&sb, "prefetch: cycles=%d lead=%d (compiled=%d warm=%d) late=%d errors=%d\n",
		p.Cycles, p.Lead(), p.Compiled, p.Warm, p.Late, p.Errors)
	u := s.Resume
	fmt.Fprintf(&sb, "resume:   tickets=%d accepts=%d rejects=%d (forged=%d expired=%d state=%d replay=%d)\n",
		u.TicketsIssued, u.Accepts, u.Rejects(), u.RejectedForged, u.RejectedExpired, u.RejectedState, u.RejectedReplayed)
	h := s.Shape
	fmt.Fprintf(&sb, "shape:    frames=%d frags=%d pad=%dB delay=%dms covers sent=%d dropped=%d rejects (unshape=%d kind=%d)\n",
		h.ShapedFrames, h.Fragments, h.PadBytes, h.DelayNanos/1e6, h.CoverSent, h.CoverDropped, h.UnshapeRejects, h.UnknownKindRejects)
	d := s.Dgram
	fmt.Fprintf(&sb, "dgram:    data sent=%d (zo=%d overhead=%dB) recv=%d control=%d covers sent=%d dropped=%d rekeys=%d dups=%d rejects=%d (stale=%d future=%d parse=%d malformed=%d)\n",
		d.DataSent, d.ZeroOverheadSent, d.OverheadBytes(), d.DataRecv, d.ControlSent, d.CoverSent, d.CoverDropped,
		d.RekeysApplied, d.RekeyDups, d.Rejects(), d.RejectedStale, d.RejectedFuture, d.RejectedParse, d.RejectedMalformed)
	l := s.Latency
	fmt.Fprintf(&sb, "latency:  compile demand=%s prefetch=%s boundary=%s rekey=%s resume=%s (p50/p99 of %d/%d/%d/%d/%d samples)\n",
		quantPair(r.DemandCompileNanos), quantPair(r.PrefetchCompileNanos),
		quantPair(l.EpochBoundary), quantPair(l.RekeyRTT), quantPair(l.ResumeRTT),
		r.DemandCompileNanos.Count, r.PrefetchCompileNanos.Count,
		l.EpochBoundary.Count, l.RekeyRTT.Count, l.ResumeRTT.Count)
	return sb.String()
}

// quantPair renders a nanosecond histogram's p50/p99 compactly for
// the -metrics text block, or "-" before any observation.
func quantPair(h HistogramStats) string {
	if h.Count == 0 {
		return "-"
	}
	p50 := time.Duration(h.Quantile(0.50)).Round(time.Microsecond)
	p99 := time.Duration(h.Quantile(0.99)).Round(time.Microsecond)
	return fmt.Sprintf("%v/%v", p50, p99)
}
