package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"

	"protoobf"
	"protoobf/internal/rng"
	"protoobf/internal/wire"
)

// allocProbeExchanges is the length of the allocation probe.
const allocProbeExchanges = 128

// driverStats is what the driver measured in the timed window.
type driverStats struct {
	rtts      []int64 // ns, exchanges that crossed no boundary
	blocks    []int64 // ns, successive blocks of blockLen exchanges
	blockCPU  []int64 // process CPU µs of the same blocks
	crossings []int64 // ns, exchanges that crossed one (step included)
	stepNs    int64   // boundary steps, summed
	attempted int64
	failed    int64
	obfBytes  int64 // wire bytes of the sampled exchanges
	problems  []string
}

// blockLen is the length of the blocks whose median rate is the
// throughput and whose median CPU time is the CPU per message: a whole
// number of boundary periods, so every block holds the same epoch steps
// and rekeys. A host burst that slows a few blocks moves neither.
func (w workload) blockLen() int { return w.boundaryEvery * max(w.rekeyEvery, 1) }

// drive runs the driver's closed loop over the plan.
func drive(d driver, w workload, p plan, t *tracer, st *driverStats) {
	st.rtts = make([]int64, 0, p.exchanges)
	blockStart, blockCPU := nanotime(), cpuUs()
	for n := 0; n < p.exchanges; n++ {
		if n > 0 && n%w.blockLen() == 0 {
			now, cpu := nanotime(), cpuUs()
			st.blocks = append(st.blocks, now-blockStart)
			st.blockCPU = append(st.blockCPU, cpu-blockCPU)
			blockStart, blockCPU = now, cpu
		}
		d.prepare()
		sampled := n%overheadEvery == 0
		var b0 int64
		if sampled {
			b0 = d.wireBytes()
		}
		t.open(uint64(n + 1))
		t.begin(lExchange)
		start := nanotime()
		var err error
		if n > 0 && n%w.boundaryEvery == 0 {
			var step int64
			step, err = d.cross(n/w.boundaryEvery, t)
			st.crossings = append(st.crossings, nanotime()-start)
			st.stepNs += step
		} else {
			err = d.exchange(t)
			st.rtts = append(st.rtts, nanotime()-start)
		}
		t.end()
		t.close()
		st.attempted++
		if sampled {
			st.obfBytes += d.wireBytes() - b0
		}
		if err == nil {
			continue
		}
		st.failed++
		if len(st.problems) < 3 {
			st.problems = append(st.problems, fmt.Sprintf("exchange %d: %v", n, err))
		}
		if !errors.Is(err, errMismatch) {
			// The session is broken; the rest of the plan fails with it.
			st.failed += int64(p.exchanges - n - 1)
			st.attempted = int64(p.exchanges)
			return
		}
	}
}

// snapshot is the process and endpoint state at one edge of the timed
// window.
type snapshot struct {
	ns         int64
	totalAlloc uint64
	numGC      uint32

	demandCompiles, hits, misses uint64
	dgramRecv, dgramSent         uint64
	dgramRejects, dgramOverhead  uint64
}

func takeSnapshot(eps []*protoobf.Endpoint) snapshot {
	var s snapshot
	for _, ep := range eps {
		m := ep.Metrics()
		s.demandCompiles += m.Rotation.DemandCompiles()
		s.hits += m.Rotation.Cache.Hits
		s.misses += m.Rotation.Cache.Misses
		s.dgramRecv += m.Dgram.DataRecv
		s.dgramSent += m.Dgram.DataSent
		s.dgramRejects += m.Dgram.Rejects()
		s.dgramOverhead += m.Dgram.OverheadBytes()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC = ms.TotalAlloc, ms.NumGC
	s.ns = nanotime()
	return s
}

// cpuUs is the process's user+sys CPU time so far, in µs.
func cpuUs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec
}

// runWith returns the runner of workloads built on app a.
func runWith[Q, P any](a *app[Q, P]) func(workload, config) (*report, error) {
	return func(w workload, cfg config) (*report, error) { return execute(a, w, cfg) }
}

func execute[Q, P any](a *app[Q, P], w workload, cfg config) (*report, error) {
	p := w.plan(cfg)

	// Set the workload up several times from nothing; keep the last.
	var r *rig
	var err error
	var setups []setupTimes
	for i := 0; i < w.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		if r, err = buildRig(a, w, p, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, r.times)
	}
	closed := false
	defer func() {
		if !closed {
			r.close()
		}
	}()

	// The timed window.
	var st driverStats
	runtime.GC()
	before := takeSnapshot(r.eps)
	drive(r.driver, w, p, r.client, &st)
	after := takeSnapshot(r.eps)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Closing waits for the server goroutine, whose tracer is read
	// below. The endpoints stay usable for the probes.
	closed = true
	if err := r.close(); err != nil {
		return nil, err
	}

	rep := &report{metrics: map[string]metric{}, attempted: st.attempted, failed: st.failed, problems: st.problems}
	rtts, crossings := st.rtts, st.crossings
	sortInt64(st.blocks)
	rate := ratio(float64(2*w.blockLen()), quantile(st.blocks, 0.5)/1e9) // msgs/s
	window := float64(after.ns - before.ns)
	msgs := float64(2 * (rep.attempted - rep.failed))
	boundaries := float64(len(crossings))
	set := func(name, unit string, v float64) { rep.metrics[name] = metric{v, unit} }

	// Workload properties: fail the run when the workload stops
	// measuring what it claims.
	demand := float64(after.demandCompiles - before.demandCompiles)
	if cfg.exchanges <= 0 && rep.attempted < minExchanges {
		rep.problems = append(rep.problems, fmt.Sprintf("property: %d exchanges, want at least %d", rep.attempted, minExchanges))
	}
	if w.warm && demand != 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("property: %v demand compiles in the timed window of a warmed workload", demand))
	}
	if w.rekeyEvery > 0 && (boundaries == 0 || demand/boundaries < 1) {
		rep.problems = append(rep.problems, fmt.Sprintf("property: %v demand compiles over %v boundaries, want at least one per boundary", demand, boundaries))
	}
	if w.transport == inlinePacket {
		if sent := after.dgramSent - before.dgramSent; sent == 0 || after.dgramOverhead != before.dgramOverhead {
			rep.problems = append(rep.problems, fmt.Sprintf("property: %d overhead bytes over %d zero-overhead data packets, want 0",
				after.dgramOverhead-before.dgramOverhead, sent))
		}
	}
	if boundaries == 0 {
		rep.problems = append(rep.problems, "property: the run crossed no epoch boundary")
	}

	if !cfg.trace {
		sortInt64(rtts)
		sortInt64(crossings)
		plain, err := plainBytes(a, cfg.seed, st.attempted)
		if err != nil {
			return nil, err
		}
		sortInt64(st.blockCPU)
		set("msgs_per_s", "1/s", rate)
		set("rtt_p50_us", "us", quantile(rtts, 0.50)/1e3)
		set("rtt_p99_us", "us", quantile(rtts, 0.99)/1e3)
		set("boundary_p50_us", "us", quantile(crossings, 0.50)/1e3)
		set("cpu_us_per_msg", "us", quantile(st.blockCPU, 0.5)/float64(2*w.blockLen()))
		set("alloc_bytes_per_msg", "B", ratio(float64(after.totalAlloc-before.totalAlloc), msgs))
		set("heap_inuse_mb", "MiB", float64(ms.HeapAlloc)/(1<<20))
		set("wire_overhead", "ratio", ratio(float64(st.obfBytes), float64(plain)))
		set("setup_s", "s", medianOf(setups, func(s setupTimes) float64 { return float64(s.total) / 1e9 }))
		return rep, nil
	}

	// Traced run: per-layer metrics from the spans, then the probes that
	// must run alone in the process.
	at, err := allocProbe(r, cfg.seed)
	if err != nil {
		return nil, err
	}
	cc, err := probeCompile([]string{a.reqSpec, a.respSpec}, w.familySeed)
	if err != nil {
		return nil, err
	}
	all := r.tracers()
	for _, t := range all {
		rep.spans = append(rep.spans, t.kept...)
	}
	sc := checkSpans(rep.spans)
	if sc.bad > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("trace: %d spans outside their parent or with negative self time", sc.bad))
	}
	if cfg.spans != "" {
		path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return nil, err
		}
	}

	set("trace.msgs_per_s", "1/s", rate)
	set("trace.span_coverage", "ratio", sc.coverage)

	set("msgtree.build_us", "us", mean(lBuild, all...))
	set("msgtree.extract_us", "us", mean(lExtract, all...))
	set("msgtree.allocs_per_msg", "count", mean(lBuild, at)+mean(lExtract, at))

	send, recv := mean(lSend, all...), mean(lRecv, all...)
	ser, par := mean(lSerialize, all...), mean(lParse, all...)
	set("session.new_message_us", "us", mean(lNewMessage, all...))
	set("session.send_us", "us", send)
	set("session.recv_us", "us", recv)
	set("session.send_self_us", "us", selfOf(send, ser))
	set("session.recv_self_us", "us", selfOf(recv, par))
	set("session.allocs_per_recv", "count", mean(lRecv, at))
	set("session.alloc_bytes_per_recv", "B", meanBytes(lRecv, at))

	var wireMsgs, wireBytes int64
	for _, t := range all {
		wireMsgs += t.wireMsgs
		wireBytes += t.wireBytes
	}
	set("wire.serialize_us", "us", ser)
	set("wire.parse_us", "us", par)
	set("wire.parse_allocs", "count", mean(lParse, at))
	set("wire.bytes_per_msg", "B", ratio(float64(wireBytes), float64(wireMsgs)))

	set("transport.payload_rt_us", "us", mean(lPayloadRT, all...))
	set("net.wait_us", "us", netWait(r.client, r.server))

	set("core.boundary_us", "us", mean(lBoundary, r.client))
	set("core.rekey_us", "us", mean(lRekey, r.client))
	set("core.boundary_share", "ratio", ratio(float64(st.stepNs), window))
	set("core.demand_compiles_per_boundary", "count", ratio(demand, boundaries))
	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	set("lru.version_hit_ratio", "ratio", ratio(hits, hits+misses))
	set("core.compile_us", "us", cc.compileUs)
	set("spec.parse_us", "us", cc.parseUs)
	set("transform.obfuscate_us", "us", cc.obfuscateUs)
	set("transform.accept_ratio", "ratio", cc.acceptRatio)
	set("graph.nodes", "count", cc.nodes)

	dsend, drecv := mean(lDgramSend, all...), mean(lDgramRecv, all...)
	set("dgram.send_us", "us", dsend)
	set("dgram.recv_us", "us", drecv)
	set("dgram.recv_self_us", "us", selfOf(drecv, par))
	set("dgram.rejects_per_pkt", "count", ratio(float64(after.dgramRejects-before.dgramRejects), float64(after.dgramRecv-before.dgramRecv)))
	set("dgram.overhead_bytes_per_pkt", "B", ratio(float64(after.dgramOverhead-before.dgramOverhead), float64(after.dgramSent-before.dgramSent)))

	set("setup.endpoint_new_us", "us", medianOf(setups, func(s setupTimes) float64 {
		return float64(s.endpointNew) / float64(s.endpoints) / 1e3
	}))
	set("setup.warm_ms", "ms", medianOf(setups, func(s setupTimes) float64 { return float64(s.warm) / 1e6 }))
	set("setup.connect_us", "us", medianOf(setups, func(s setupTimes) float64 {
		return ratio(float64(s.connect), float64(s.conns)) / 1e3
	}))
	set("runtime.gc_cycles_per_kmsg", "count", ratio(float64(after.numGC-before.numGC)*1000, msgs))
	return rep, nil
}

// allocProbe runs a short single-goroutine probe on a fresh inline pair
// of the rig's endpoints with the tracer in alloc mode: every span then
// measures the heap objects and bytes its call allocated.
func allocProbe(r *rig, seed int64) (*tracer, error) {
	d, closeFn, err := r.probe(seed)
	if err != nil {
		return nil, fmt.Errorf("alloc probe: %w", err)
	}
	defer closeFn()
	t := &tracer{on: true, alloc: true}
	for n := 0; n < allocProbeExchanges; n++ {
		d.prepare()
		t.open(uint64(n))
		if err := d.exchange(t); err != nil {
			return nil, fmt.Errorf("alloc probe exchange %d: %w", n, err)
		}
		t.close()
	}
	return t, nil
}

// plainBytes replays the driver's generator over the exchanges it ran
// and serializes the sampled ones with the PerNode 0 protocols: the
// reference the wire bytes are compared with.
func plainBytes[Q, P any](a *app[Q, P], seed int64, attempted int64) (int64, error) {
	req, err := protoobf.Compile(a.reqSpec, protoobf.Options{PerNode: 0})
	if err != nil {
		return 0, err
	}
	rsp, err := protoobf.Compile(a.respSpec, protoobf.Options{PerNode: 0})
	if err != nil {
		return 0, err
	}
	r := rng.New(1)
	var total int64
	gen := a.newGen(seed, 0)
	for n := int64(0); n < attempted; n++ {
		q, p := gen.next()
		if n%overheadEvery != 0 {
			continue
		}
		mq, err := a.buildReq(req.Graph, r, q)
		if err != nil {
			return 0, err
		}
		mp, err := a.buildResp(rsp.Graph, r, p)
		if err != nil {
			return 0, err
		}
		for _, m := range []*protoobf.Message{mq, mp} {
			b, err := wire.Serialize(m)
			if err != nil {
				return 0, err
			}
			total += int64(len(b))
		}
	}
	return total, nil
}

// netWait is the TCP workload's time on the network: client exchange
// time minus the client's own compute spans and the server's handling.
// Zero for workloads without a server goroutine.
func netWait(client, server *tracer) float64 {
	if server == nil {
		return 0
	}
	var compute int64
	for _, l := range []layer{lBoundary, lNewMessage, lBuild, lSend, lExtract, lVerify, lSerialize, lParse} {
		compute += client.total[l]
	}
	return ratio(float64(client.total[lExchange]-compute-server.total[lServerHandle]), float64(client.count[lExchange])) / 1e3
}

// selfOf is a call's time minus the probed time of the work inside it,
// or 0 when the call was not made.
func selfOf(call, inner float64) float64 {
	if call == 0 {
		return 0
	}
	return call - inner
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
