package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// layer names one module boundary the benchmark's own calls cross. The
// traced run records a span around each call; the names are the prefixes
// of the per-layer metrics.
type layer uint8

const (
	lExchange layer = iota
	lBoundary
	lRekey
	lNewMessage
	lBuild
	lSend
	lRecv
	lExtract
	lRespond
	lVerify
	lSerialize
	lParse
	lPayloadRT
	lDgramSend
	lDgramRecv
	lServerHandle
	nLayers
)

var layerNames = [nLayers]string{
	lExchange:     "exchange",
	lBoundary:     "core.boundary",
	lRekey:        "core.rekey",
	lNewMessage:   "session.new_message",
	lBuild:        "msgtree.build",
	lSend:         "session.send",
	lRecv:         "session.recv",
	lExtract:      "msgtree.extract",
	lRespond:      "app.respond",
	lVerify:       "verify",
	lSerialize:    "wire.serialize",
	lParse:        "wire.parse",
	lPayloadRT:    "transport.payload_rt",
	lDgramSend:    "dgram.send",
	lDgramRecv:    "dgram.recv",
	lServerHandle: "server.handle",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call. All spans of one exchange share x; id and
// parent index the exchange's spans (the client side numbers from 0,
// a server goroutine from serverSpanBase; parent -1 marks a root).
type span struct {
	x          uint64
	id, parent int16
	layer      layer
	start, end int64 // ns since the tracer's epoch
}

const (
	serverSpanBase = 128
	keepEvery      = 64 // exchanges whose spans are kept for the span file
	probeEvery     = 8  // exchanges that re-run the wire and transport probes
)

// tracer records the spans of one goroutine. The untraced runs that
// produce the end-to-end metrics call the same begin/end hooks, which
// return at once when the tracer is off.
//
// In alloc mode (set for the single-goroutine allocation probe) begin
// and end read the runtime's allocation counters instead of the clock,
// so the same exchange code yields per-layer allocation counts.
type tracer struct {
	on    bool
	alloc bool
	t0    time.Time

	x      uint64
	idBase int16
	cur    []span
	stack  []int

	kept []span

	marks []allocMark // alloc mode: counters at each open span's begin

	// wireMsgs and wireBytes count the payloads the wire probe
	// serialized.
	wireMsgs, wireBytes int64

	count [nLayers]int64
	total [nLayers]int64 // ns, or objects in alloc mode
	bytes [nLayers]int64 // alloc mode only

	ms runtime.MemStats
}

type allocMark struct{ objects, bytes uint64 }

// untraced is a tracer that is off; being stateless, it is safe to share.
var untraced = &tracer{}

func newTracer(on bool, t0 time.Time, idBase int16) *tracer {
	return &tracer{on: on, t0: t0, idBase: idBase}
}

// open starts exchange x.
func (t *tracer) open(x uint64) {
	if !t.on {
		return
	}
	t.x = x
	t.cur = t.cur[:0]
	t.stack = t.stack[:0]
	t.marks = t.marks[:0]
}

// probing reports whether exchange x re-runs the wire/transport probes.
func (t *tracer) probing() bool { return t.on && (t.alloc || t.x%probeEvery == 0) }

func (t *tracer) begin(l layer) {
	if !t.on {
		return
	}
	parent := int16(-1)
	if n := len(t.stack); n > 0 {
		parent = t.cur[t.stack[n-1]].id
	}
	s := span{x: t.x, id: t.idBase + int16(len(t.cur)), parent: parent, layer: l}
	t.cur = append(t.cur, s)
	t.stack = append(t.stack, len(t.cur)-1)
	if t.alloc {
		runtime.ReadMemStats(&t.ms)
		t.marks = append(t.marks, allocMark{t.ms.Mallocs, t.ms.TotalAlloc})
		return
	}
	t.cur[len(t.cur)-1].start = int64(time.Since(t.t0))
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.cur[i]
	if t.alloc {
		runtime.ReadMemStats(&t.ms)
		m := t.marks[len(t.marks)-1]
		t.marks = t.marks[:len(t.marks)-1]
		t.count[s.layer]++
		t.total[s.layer] += int64(t.ms.Mallocs - m.objects)
		t.bytes[s.layer] += int64(t.ms.TotalAlloc - m.bytes)
		return
	}
	s.end = int64(time.Since(t.t0))
	t.count[s.layer]++
	t.total[s.layer] += s.end - s.start
}

// close ends exchange x, keeping its spans when x is sampled.
func (t *tracer) close() {
	if !t.on || t.alloc {
		return
	}
	if t.x%keepEvery == 0 {
		t.kept = append(t.kept, t.cur...)
	}
}

// mean returns the mean of layer l over the given tracers, in µs (or in
// objects in alloc mode), and 0 when no call of l was recorded.
func mean(l layer, ts ...*tracer) float64 {
	var n, sum int64
	for _, t := range ts {
		n += t.count[l]
		sum += t.total[l]
	}
	if n == 0 {
		return 0
	}
	if ts[0].alloc {
		return float64(sum) / float64(n)
	}
	return float64(sum) / float64(n) / 1e3
}

// meanBytes returns the mean bytes allocated per call of l (alloc mode).
func meanBytes(l layer, ts ...*tracer) float64 {
	var n, sum int64
	for _, t := range ts {
		n += t.count[l]
		sum += t.bytes[l]
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// spanCheck summarizes the kept exchanges: the mean share of each
// client root span covered by its direct children, and the number of
// spans whose self time (duration minus its children's durations) is
// negative or that do not lie inside their parent.
type spanCheck struct {
	exchanges int
	coverage  float64
	bad       int
}

func checkSpans(spans []span) spanCheck {
	byX := map[uint64][]span{}
	var order []uint64
	for _, s := range spans {
		if _, ok := byX[s.x]; !ok {
			order = append(order, s.x)
		}
		byX[s.x] = append(byX[s.x], s)
	}
	var c spanCheck
	for _, x := range order {
		ss := byX[x]
		byID := map[int16]span{}
		child := map[int16]int64{}
		for _, s := range ss {
			byID[s.id] = s
		}
		for _, s := range ss {
			if s.parent < 0 {
				continue
			}
			p, ok := byID[s.parent]
			if !ok || s.start < p.start || s.end > p.end {
				c.bad++
				continue
			}
			child[s.parent] += s.end - s.start
		}
		for _, s := range ss {
			if s.end-s.start-child[s.id] < 0 {
				c.bad++
			}
		}
		root, ok := byID[0]
		if !ok || root.layer != lExchange || root.end <= root.start {
			continue
		}
		c.exchanges++
		c.coverage += float64(child[0]) / float64(root.end-root.start)
	}
	if c.exchanges > 0 {
		c.coverage /= float64(c.exchanges)
	}
	return c
}

// writeSpans writes the kept spans as JSON lines: one object per span
// with its exchange, id, parent, layer name, and start/end in ns since
// the run's epoch.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			X      uint64 `json:"exchange"`
			ID     int16  `json:"id"`
			Parent int16  `json:"parent"`
			Layer  string `json:"layer"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.x, s.id, s.parent, s.layer.String(), s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
