package session

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"protoobf/internal/graph"
	"protoobf/internal/lru"
	"protoobf/internal/metrics"
	"protoobf/internal/msgtree"
	"protoobf/internal/rng"
	"protoobf/internal/session/sched"
	"protoobf/internal/trace"
)

// EpochCore is the per-session epoch state both transports share: the
// bounded dialect cache and its graph→epoch reverse index, the message
// rng, control masking, rekey apply and rollback, and the lifecycle
// hooks. The stream and datagram Conns each hold one and keep framing,
// ordering and rekey policy. The epoch counter is the transport's (the
// stream send epoch, the datagram horizon); the core raises it.
type EpochCore struct {
	name     string // error prefix of the owning transport
	versions Versioner
	epoch    *atomic.Uint64
	schedule *sched.Scheduler
	window   int // resolved dialect cache bound (0 = unbounded)
	lat      *metrics.LatencyCounters
	tr       *trace.Ring
	traceID  uint64

	// OnDrop, when set, runs after DropFrom so the transport can drop its
	// own per-epoch state derived under the old family.
	OnDrop func(from uint64)

	mu       sync.Mutex // guards dialects, byGraph and mrng
	dialects *lru.Cache[uint64, *graph.Graph]
	byGraph  map[*graph.Graph]uint64
	mrng     *rng.R
}

// Init prepares the core from the Schedule, CacheWindow, Latency, Trace
// and TraceID of opts; minWindow floors a bounded cache window. Init
// runs before any other method.
func (e *EpochCore) Init(name string, versions Versioner, epoch *atomic.Uint64, minWindow int, opts Options) {
	window := opts.CacheWindow
	if window == 0 {
		window = DefaultCacheWindow
	}
	if window < 0 {
		window = 0 // lru: unbounded
	} else {
		window = max(window, minWindow)
	}
	*e = EpochCore{
		name:     name,
		versions: versions,
		epoch:    epoch,
		schedule: opts.Schedule,
		window:   window,
		lat:      opts.Latency,
		tr:       opts.Trace,
		traceID:  opts.TraceID,
		byGraph:  make(map[*graph.Graph]uint64),
		mrng:     rng.New(messageSeed()),
	}
	// The eviction hook keeps the reverse index in step with the window;
	// it runs under e.mu (all cache mutation does).
	e.dialects = lru.New[uint64, *graph.Graph](window, e.unindex)
}

// messageSeed draws the seed of a core's message rng from crypto/rand,
// so sessions of one family do not repeat each other's representations
// of a message. Only the dialect (the compile stream) is shared.
func messageSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("session: crypto/rand: " + err.Error())
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// unindex removes g from the reverse index if it still maps to epoch.
// Callers hold e.mu.
func (e *EpochCore) unindex(epoch uint64, g *graph.Graph) {
	if e.byGraph[g] == epoch {
		delete(e.byGraph, g)
	}
}

// CacheWindow returns the resolved dialect cache bound (0 = unbounded).
func (e *EpochCore) CacheWindow() int { return e.window }

// Raise moves the epoch up to epoch; lower values are ignored.
func (e *EpochCore) Raise(epoch uint64) { raiseEpoch(e.epoch, epoch) }

// raiseEpoch raises a monotonic epoch counter: racing raises (local
// rotation against following a peer) settle on the highest value.
func raiseEpoch(a *atomic.Uint64, epoch uint64) {
	for {
		cur := a.Load()
		if epoch <= cur || a.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Dialect fetches the graph of epoch through the bounded cache and
// records it so Send can recover the epoch a message was composed for.
// Compilation happens outside e.mu: it costs real CPU and the Versioner
// (core.Rotation) serializes concurrent compiles itself.
func (e *EpochCore) Dialect(epoch uint64) (*graph.Graph, error) {
	e.mu.Lock()
	if g, ok := e.dialects.Get(epoch); ok {
		e.mu.Unlock()
		return g, nil
	}
	e.mu.Unlock()
	g, err := e.versions.Graph(epoch)
	if err != nil {
		return nil, fmt.Errorf("%s: epoch %d: %w", e.name, epoch, err)
	}
	e.mu.Lock()
	e.dialects.Put(epoch, g)
	e.byGraph[g] = epoch
	e.mu.Unlock()
	return g, nil
}

// Advance raises the epoch to epoch, compiling its dialect first so a
// failing epoch never becomes current.
func (e *EpochCore) Advance(epoch uint64) error {
	if _, err := e.Dialect(epoch); err != nil {
		return err
	}
	e.Raise(epoch)
	return nil
}

// AdoptSchedule pulls the epoch forward to a schedule that is ahead:
// the target dialect compiles, then gate raises the epoch and returns
// the epoch it raised to (nil raises to the target). Each crossing is
// traced and timed into EpochBoundary. No-op without a schedule.
func (e *EpochCore) AdoptSchedule(gate func(target uint64) uint64) error {
	if e.schedule == nil {
		return nil
	}
	before, target := e.epoch.Load(), e.schedule.Epoch()
	if target <= before {
		return nil
	}
	start := time.Now()
	if _, err := e.Dialect(target); err != nil {
		return err
	}
	if gate != nil {
		target = gate(target)
	} else {
		e.Raise(target)
	}
	if target > before {
		if e.lat != nil {
			e.lat.EpochBoundary.ObserveDuration(time.Since(start))
		}
		e.Emit(trace.KindEpochCross, target, "")
	}
	return nil
}

// NewMessage returns an empty message for the current epoch's dialect.
func (e *EpochCore) NewMessage() (*msgtree.Message, error) {
	g, err := e.Dialect(e.epoch.Load())
	if err != nil {
		return nil, err
	}
	return msgtree.New(g, e.Split()), nil
}

// Split derives the rng of one message to compose or parse.
func (e *EpochCore) Split() *rng.R {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mrng.Split()
}

// Chaff returns min plus up to span-1 random bytes: cover payloads and
// control-packet padding.
func (e *EpochCore) Chaff(min, span int) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mrng.Bytes(min + e.mrng.Pick(span))
}

// SendEpoch returns the epoch whose dialect composed m; none once that
// dialect left the cache window or a rekey dropped it.
func (e *EpochCore) SendEpoch(m *msgtree.Message) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sendEpochLocked(m)
}

// SendEpochs is SendEpoch for a batch under one lock round, writing the
// epoch of ms[i] to epochs[i].
func (e *EpochCore) SendEpochs(ms []*msgtree.Message, epochs []uint64) (err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, m := range ms {
		if epochs[i], err = e.sendEpochLocked(m); err != nil {
			return err
		}
	}
	return nil
}

func (e *EpochCore) sendEpochLocked(m *msgtree.Message) (uint64, error) {
	epoch, ok := e.byGraph[m.G]
	if !ok {
		return 0, fmt.Errorf("%s: message graph %q does not belong to this session (or its epoch left the cache window)", e.name, m.G.ProtocolName)
	}
	return epoch, nil
}

// MaskControl XORs the control pad of epoch over p (and so unmasks it).
// Without a Padder the payload travels in the clear.
func (e *EpochCore) MaskControl(epoch uint64, p []byte) {
	pd, ok := e.versions.(Padder)
	if !ok {
		return
	}
	pad := pd.ControlPad(epoch, len(p))
	for i := range p {
		p[i] ^= pad[i]
	}
}

// CanRekey reports whether the Versioner supports rekeying.
func (e *EpochCore) CanRekey() bool {
	_, ok := e.versions.(Rekeyer)
	return ok
}

// ApplyRekey switches the family to seed from epoch from onward, drops
// the old family's epoch state past the boundary and compiles the new
// family's first dialect, rolling the switch back if that fails.
func (e *EpochCore) ApplyRekey(from uint64, seed int64) error {
	rk, ok := e.versions.(Rekeyer)
	if !ok {
		return errors.New(e.name + ": peer requested rekey but versioner cannot rekey")
	}
	if err := rk.Rekey(from, seed); err != nil {
		return fmt.Errorf("%s: rekey: %w", e.name, err)
	}
	e.DropFrom(from)
	if _, err := e.Dialect(from); err != nil {
		e.RollbackRekey(from, seed)
		return err
	}
	return nil
}

// RollbackRekey undoes an applied family switch that failed to commit.
// Best-effort: a Versioner without DropRekey keeps the switch.
func (e *EpochCore) RollbackRekey(from uint64, seed int64) {
	e.Emit(trace.KindRekeyRollback, from, "")
	type dropper interface {
		DropRekey(from uint64, seed int64) error
	}
	if d, ok := e.versions.(dropper); ok && d.DropRekey(from, seed) == nil {
		e.DropFrom(from) // the new-family dialects just cached
	}
}

// DropFrom invalidates the cached dialects at or past a rekey boundary,
// then the transport's own per-epoch state (OnDrop).
func (e *EpochCore) DropFrom(from uint64) {
	e.mu.Lock()
	e.dialects.DeleteIf(func(epoch uint64, _ *graph.Graph) bool { return epoch >= from }, e.unindex)
	e.mu.Unlock()
	if e.OnDrop != nil {
		e.OnDrop(from)
	}
}

// Emit records one lifecycle event (no-op without a trace ring).
func (e *EpochCore) Emit(kind trace.Kind, epoch uint64, detail string) {
	e.tr.Emit(e.traceID, kind, epoch, detail)
}
