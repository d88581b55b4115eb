package metrics

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// WriteProm renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4), so an endpoint's Metrics() can be served from a
// /metrics handler and scraped without pulling in a client library —
// this module stays dependency-free. Counters map to counter metrics,
// live cache geometry to gauges, latency/size distributions to proper
// histogram families (_bucket/_sum/_count with a terminal +Inf);
// per-shard cache traffic is emitted with a shard label so hot-shard
// imbalance is visible to the scraper exactly as it is in
// CacheStats.PerShard. A protoobf_build_info gauge carries the module
// version so dashboards can correlate scrapes with builds.
//
// The writer is typically an http.ResponseWriter; any error is the
// writer's, surfaced on the first failing write.
func WriteProm(w io.Writer, s Snapshot) error {
	p := newPromWriter()
	p.buildInfo()
	writeSnapshot(p, s)
	return p.writeTo(w)
}

// FleetSnapshot names one backend's Snapshot for fleet-level export.
type FleetSnapshot struct {
	Backend string
	Snap    Snapshot
}

// WriteFleetProm renders many backends' Snapshots as one exposition
// page: every family appears once (single HELP/TYPE header) with each
// backend's samples distinguished by a backend label — how a gateway's
// /metrics presents its whole fleet to one scrape. The build_info
// gauge describes the serving process and carries no backend label.
func WriteFleetProm(w io.Writer, fleet []FleetSnapshot) error {
	p := newPromWriter()
	p.buildInfo()
	for _, m := range fleet {
		p.labels = `backend="` + escapeLabel(m.Backend) + `"`
		writeSnapshot(p, m.Snap)
	}
	return p.writeTo(w)
}

// writeSnapshot emits every family of one Snapshot into p (under p's
// constant labels, if any).
func writeSnapshot(p *promWriter, s Snapshot) {
	r := s.Rotation
	p.counter("protoobf_rotation_compiles_total",
		"Dialect compiles performed (demand and prefetch).", r.Compiles)
	p.counter("protoobf_rotation_prefetch_compiles_total",
		"Dialect compiles performed ahead of need by a prefetch daemon.", r.PrefetchCompiles)
	p.counter("protoobf_rotation_compile_dedup_total",
		"Version lookups that joined an in-flight compile instead of burning their own.", r.CompileDedup)
	p.counter("protoobf_rotation_compile_errors_total",
		"Dialect compiles that failed.", r.CompileErrors)
	p.counter("protoobf_rotation_rekeys_total",
		"Rekey points applied across all session views.", r.Rekeys)
	p.counter("protoobf_rotation_rekey_rollbacks_total",
		"Rekey points rolled back after a failed handshake commit.", r.RekeyRollbacks)
	p.counter("protoobf_artifact_loads_total",
		"Dialect versions restored from the serialized-artifact store instead of compiled.", r.ArtifactLoads)
	p.counter("protoobf_artifact_saves_total",
		"Compiled dialect versions persisted to the artifact store.", r.ArtifactSaves)
	p.counter("protoobf_artifact_errors_total",
		"Artifact store loads or saves that failed (the rotation fell back to compiling).", r.ArtifactErrors)
	p.histogram("protoobf_compile_demand_seconds",
		"Duration of dialect compiles paid for on a session hot path.", r.DemandCompileNanos, 1e9)
	p.histogram("protoobf_compile_prefetch_seconds",
		"Duration of dialect compiles run ahead of need by a prefetch daemon.", r.PrefetchCompileNanos, 1e9)

	c := r.Cache
	p.counter("protoobf_cache_hits_total", "Version cache hits.", c.Hits)
	p.counter("protoobf_cache_misses_total", "Version cache misses.", c.Misses)
	p.counter("protoobf_cache_evictions_total", "Version cache evictions.", c.Evictions)
	p.gauge("protoobf_cache_entries", "Compiled versions cached now.", uint64(c.Len))
	p.gauge("protoobf_cache_capacity", "Configured version cache bound (0 = unbounded).", uint64(max(c.Cap, 0)))
	if len(c.PerShard) > 0 {
		p.family("protoobf_cache_shard_hits_total", "Version cache hits by shard.", "counter")
		for i, row := range c.PerShard {
			p.labeled("protoobf_cache_shard_hits_total", "shard", i, row.Hits)
		}
		p.family("protoobf_cache_shard_misses_total", "Version cache misses by shard.", "counter")
		for i, row := range c.PerShard {
			p.labeled("protoobf_cache_shard_misses_total", "shard", i, row.Misses)
		}
	}

	f := s.Prefetch
	p.counter("protoobf_prefetch_cycles_total", "Completed prefetch passes.", f.Cycles)
	p.counter("protoobf_prefetch_compiled_total",
		"Versions compiled strictly before their epoch began.", f.Compiled)
	p.counter("protoobf_prefetch_warm_total",
		"Prefetch targets already compiled when the daemon reached them.", f.Warm)
	p.counter("protoobf_prefetch_late_total",
		"Prefetch targets whose epoch began before the daemon finished with them.", f.Late)
	p.counter("protoobf_prefetch_errors_total", "Prefetch compiles that failed.", f.Errors)

	u := s.Resume
	p.counter("protoobf_resume_tickets_issued_total",
		"Resumption tickets exported by sessions of this endpoint.", u.TicketsIssued)
	p.counter("protoobf_resume_accepts_total",
		"Resume handshakes accepted.", u.Accepts)
	p.family("protoobf_resume_rejects_total", "Resume handshakes rejected, by reason.", "counter")
	p.labeledStr("protoobf_resume_rejects_total", "reason", "forged", u.RejectedForged)
	p.labeledStr("protoobf_resume_rejects_total", "reason", "expired", u.RejectedExpired)
	p.labeledStr("protoobf_resume_rejects_total", "reason", "state", u.RejectedState)
	p.labeledStr("protoobf_resume_rejects_total", "reason", "replay", u.RejectedReplayed)

	h := s.Shape
	p.counter("protoobf_shape_frames_total",
		"Data frames morphed by the traffic shaper (fragments included).", h.ShapedFrames)
	p.counter("protoobf_shape_fragments_total",
		"Extra frames produced by MTU splitting.", h.Fragments)
	p.counter("protoobf_shape_pad_bytes_total",
		"Pad bytes appended to shaped frames.", h.PadBytes)
	p.counter("protoobf_shape_delay_ns_total",
		"Inter-frame jitter injected by the pacer, in nanoseconds.", h.DelayNanos)
	p.counter("protoobf_shape_cover_sent_total",
		"Cover (decoy) frames emitted.", h.CoverSent)
	p.counter("protoobf_shape_cover_dropped_total",
		"Cover frames received and silently discarded.", h.CoverDropped)
	p.family("protoobf_shape_rejects_total", "Receive-side shaping rejects, by reason.", "counter")
	p.labeledStr("protoobf_shape_rejects_total", "reason", "unshape", h.UnshapeRejects)
	p.labeledStr("protoobf_shape_rejects_total", "reason", "unknown-kind", h.UnknownKindRejects)
	p.histogram("protoobf_shape_delay_seconds",
		"Per-frame pacing delay injected by the traffic shaper.", h.DelayHist, 1e9)

	d := s.Dgram
	p.counter("protoobf_dgram_data_sent_total",
		"Datagram data packets sent.", d.DataSent)
	p.counter("protoobf_dgram_data_recv_total",
		"Datagram data packets received and decoded.", d.DataRecv)
	p.counter("protoobf_dgram_zero_overhead_sent_total",
		"Data packets sent with zero added bytes (zero-overhead mode).", d.ZeroOverheadSent)
	p.counter("protoobf_dgram_data_wire_bytes_total",
		"Wire bytes of datagram data packets sent.", d.DataWireBytes)
	p.counter("protoobf_dgram_data_payload_bytes_total",
		"Serialized-payload bytes of datagram data packets sent (wire minus payload is framing overhead).", d.DataPayloadBytes)
	p.counter("protoobf_dgram_control_sent_total",
		"Datagram control packets sent (rekey proposes, covers).", d.ControlSent)
	p.counter("protoobf_dgram_cover_sent_total",
		"Datagram cover (decoy) packets emitted.", d.CoverSent)
	p.counter("protoobf_dgram_cover_dropped_total",
		"Datagram cover packets received and silently discarded.", d.CoverDropped)
	p.counter("protoobf_dgram_rekeys_applied_total",
		"Datagram rekey control packets that switched the dialect family.", d.RekeysApplied)
	p.counter("protoobf_dgram_rekey_dups_total",
		"Redundant or replayed rekey control packets discarded idempotently.", d.RekeyDups)
	p.family("protoobf_dgram_rejects_total", "Datagram packets rejected, by reason.", "counter")
	p.labeledStr("protoobf_dgram_rejects_total", "reason", "stale", d.RejectedStale)
	p.labeledStr("protoobf_dgram_rejects_total", "reason", "future", d.RejectedFuture)
	p.labeledStr("protoobf_dgram_rejects_total", "reason", "parse", d.RejectedParse)
	p.labeledStr("protoobf_dgram_rejects_total", "reason", "malformed", d.RejectedMalformed)
	p.histogram("protoobf_dgram_send_batch_size",
		"Packets staged per datagram SendBatch call.", d.SendBatchSizes, 1)
	p.histogram("protoobf_dgram_recv_batch_size",
		"Packets drained per datagram RecvBatch call.", d.RecvBatchSizes, 1)

	l := s.Latency
	p.histogram("protoobf_epoch_boundary_seconds",
		"Epoch-boundary crossing latency of stream and packet sessions (schedule tick to new dialect installed).", l.EpochBoundary, 1e9)
	p.histogram("protoobf_rekey_rtt_seconds",
		"Rekey handshake round trip (proposal sent to ack processed).", l.RekeyRTT, 1e9)
	p.histogram("protoobf_resume_rtt_seconds",
		"Resume handshake round trip on the resuming side (ticket sent to ack processed).", l.ResumeRTT, 1e9)
}

// promFam is one metric family: a single HELP/TYPE header and the
// sample rows collected under it, in emission order.
type promFam struct {
	name, help, typ string
	rows            []string
}

// promWriter collects exposition families before writing, so the same
// family fed from many sources (a fleet of backends) still renders
// with exactly one header — the format's uniqueness rule.
type promWriter struct {
	labels string // pre-rendered constant labels for every row, or ""
	fams   []*promFam
	byName map[string]*promFam
}

func newPromWriter() *promWriter {
	return &promWriter{byName: make(map[string]*promFam)}
}

// family returns the named family, creating it (in output order) on
// first use. The first help/type registered wins; callers register
// each family consistently.
func (p *promWriter) family(name, help, typ string) *promFam {
	if f, ok := p.byName[name]; ok {
		return f
	}
	f := &promFam{name: name, help: help, typ: typ}
	p.byName[name] = f
	p.fams = append(p.fams, f)
	return f
}

// row appends one sample named exactly name (which may carry a
// histogram suffix) with the given extra labels merged after the
// writer's constant labels.
func (p *promWriter) row(f *promFam, name, labels, value string) {
	all := p.labels
	if labels != "" {
		if all != "" {
			all += ","
		}
		all += labels
	}
	if all == "" {
		f.rows = append(f.rows, name+" "+value)
	} else {
		f.rows = append(f.rows, name+"{"+all+"} "+value)
	}
}

func (p *promWriter) counter(name, help string, v uint64) {
	f := p.family(name, help, "counter")
	p.row(f, name, "", strconv.FormatUint(v, 10))
}

func (p *promWriter) gauge(name, help string, v uint64) {
	f := p.family(name, help, "gauge")
	p.row(f, name, "", strconv.FormatUint(v, 10))
}

// labeled appends a sample with one integer-valued label to an
// already-registered family.
func (p *promWriter) labeled(name, label string, key int, v uint64) {
	if f, ok := p.byName[name]; ok {
		p.row(f, name, label+`="`+strconv.Itoa(key)+`"`, strconv.FormatUint(v, 10))
	}
}

// labeledStr appends a sample with one string-valued label to an
// already-registered family.
func (p *promWriter) labeledStr(name, label, key string, v uint64) {
	if f, ok := p.byName[name]; ok {
		p.row(f, name, label+`="`+escapeLabel(key)+`"`, strconv.FormatUint(v, 10))
	}
}

// histogram emits h as a Prometheus histogram family: cumulative
// _bucket rows up to the highest occupied bucket, a terminal +Inf
// bucket equal to _count, and _sum. scale divides the raw log2 bucket
// bounds and sum into the exported unit (1e9 turns nanoseconds into
// the conventional seconds; 1 keeps raw values, e.g. batch sizes).
func (p *promWriter) histogram(name, help string, h HistogramStats, scale float64) {
	f := p.family(name, help, "histogram")
	hi := 0
	for i := HistBuckets - 1; i >= 0; i-- {
		if h.Buckets[i] != 0 {
			hi = i
			break
		}
	}
	var cum uint64
	for i := 0; i <= hi; i++ {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(float64(BucketBound(i))/scale, 'g', -1, 64)
		p.row(f, name+"_bucket", `le="`+le+`"`, strconv.FormatUint(cum, 10))
	}
	p.row(f, name+"_bucket", `le="+Inf"`, strconv.FormatUint(h.Count, 10))
	p.row(f, name+"_sum", "", strconv.FormatFloat(float64(h.Sum)/scale, 'g', -1, 64))
	p.row(f, name+"_count", "", strconv.FormatUint(h.Count, 10))
}

// buildInfo emits the protoobf_build_info gauge: constant 1 with the
// module version and Go runtime as labels, the conventional shape for
// correlating a scrape with the build that produced it. It ignores the
// writer's constant labels — it describes the serving process, not a
// backend.
func (p *promWriter) buildInfo() {
	f := p.family("protoobf_build_info",
		"Build metadata of the serving process (value is always 1).", "gauge")
	labels := `version="` + escapeLabel(moduleVersion()) + `",goversion="` + escapeLabel(runtime.Version()) + `"`
	f.rows = append(f.rows, "protoobf_build_info{"+labels+"} 1")
}

// moduleVersion reports the main module's version from the build info
// ("(devel)" for plain builds, a semver for module-built binaries).
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// writeTo renders the collected families in registration order,
// remembering the first write error.
func (p *promWriter) writeTo(w io.Writer) error {
	for _, f := range p.fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, r := range f.rows {
			if _, err := io.WriteString(w, r+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// escapeLabel escapes a label value per the text exposition format
// (version 0.0.4): backslash, double-quote and newline only. Go's %q is
// NOT equivalent — it emits \uXXXX and \xXX escapes for control and
// non-ASCII bytes, which the Prometheus parser does not define and
// either rejects or reads literally.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
