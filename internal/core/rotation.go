package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"protoobf/internal/artifact"
	"protoobf/internal/graph"
	"protoobf/internal/lru"
	"protoobf/internal/metrics"
	"protoobf/internal/spec"
)

// DefaultVersionWindow bounds how many compiled protocol versions a
// Rotation keeps. A session touches a handful of epochs around the
// current one (current send epoch, stale epochs with frames in flight,
// the rekey target); everything else recompiles deterministically on
// demand, so the window trades a rare recompile for O(window) instead of
// O(epochs) memory on long-lived rotations.
const DefaultVersionWindow = 64

// Rotation implements the deployment model sketched in the paper's
// conclusion: "new obfuscated versions of the protocol can be easily
// generated [...] The deployment of new versions, at regular intervals,
// should decrease the likelihood that the protocol can be successfully
// reversed."
//
// Each epoch deterministically derives a fresh protocol version from
// (spec, seed family, epoch), so that independently deployed peers agree
// on the dialect of any epoch without coordination beyond a shared epoch
// counter — in deployment derived from coarse wall-clock time by
// internal/session/sched.
//
// A Rotation is the shared, compile-once half of the model: one process
// serving many concurrent sessions of the same dialect family keeps a
// single Rotation, whose compiled-version cache is sharded and keyed by
// (family seed, epoch) so hundreds of sessions hitting it do not
// serialize on one mutex. The mutable half — the rekey points recording
// that epochs from some boundary onward derive from a fresh master
// seed — lives in a View: every session takes its own View, so in-band
// rekeys negotiated on one session never touch another. The Rotation's
// own Rekey/DropRekey/ControlPad methods operate on a built-in default
// view, for code that hands a Rotation directly to a session as its
// Versioner: the simulated peers of the bench and adversary harnesses
// and tests, each of which owns its Rotation.
type Rotation struct {
	source string
	opts   ObfuscationOptions

	cache *lru.Sharded[versionKey, *Protocol]

	// art, when non-nil, is the serialized-artifact store behind the
	// compiled-version cache: misses try a store load before compiling,
	// and fresh compiles are persisted for other processes (see
	// NewRotationCache). artDigest keys this rotation's artifacts;
	// orig is the once-parsed plain graph restored Protocols share.
	art       *artifact.Store
	artDigest [32]byte
	orig      *graph.Graph

	// flight deduplicates concurrent compiles of the same version: at an
	// epoch boundary every session of the family misses the cache at
	// once, and without dedup each would burn a full compile.
	flightMu sync.Mutex
	flight   map[versionKey]*flightCall

	// self is the default view behind the Rotation's own Versioner
	// methods (a Rotation handed directly to one session).
	self View

	// stats counts compile activity: atomic adds on the compile path,
	// snapshotted by Stats. Cache traffic is counted by the cache
	// itself.
	stats metrics.RotationCounters

	// fams tracks the rekeyed seed families recently active on this
	// Rotation's views — registered when a view rekeys (or imports a
	// resumption lineage) and refreshed by every demand lookup — so a
	// prefetch daemon can warm upcoming epochs of the families live
	// sessions actually speak, not just the base family. Bounded: stale
	// families age out after familyIdleEpochs without a demand lookup.
	famMu sync.Mutex
	fams  map[int64]familyTrack
}

// versionKey names one compiled protocol version: the master seed of
// the family active at the epoch, and the epoch itself. Keying the
// cache by family makes rekeying a pure metadata change — a rekeyed
// view simply starts asking for the new family's versions, while other
// views of the same Rotation keep hitting the old family's entries.
type versionKey struct {
	family int64
	epoch  uint64
}

// familyTrack is the liveness record of one rekeyed family: the epoch
// its rekey point starts at (prefetching earlier epochs of the family
// would compile versions no session can ever request) and the highest
// epoch a session demanded under it (the liveness signal — a live
// rekeyed session demands a fresh epoch of its family at every
// boundary, so lastSeen tracks the schedule while the session lives and
// freezes when it dies).
type familyTrack struct {
	from     uint64
	lastSeen uint64
}

// familyIdleEpochs is how many epochs a rekeyed family may go without a
// demand lookup before it stops being considered active: long enough to
// ride out a quiet session, short enough that dead families stop
// costing the prefetch daemon compiles.
const familyIdleEpochs = 8

// maxTrackedFamilies bounds the family-liveness table so a hostile or
// pathological rekey storm cannot grow it without limit; beyond the
// bound, new families are simply not tracked (they fall back to demand
// compiles, the behavior without the daemon).
const maxTrackedFamilies = 1024

// ActiveFamily is one rekeyed seed family a prefetch daemon should keep
// warm, and the epoch its lineage starts at.
type ActiveFamily struct {
	Seed int64
	From uint64
}

// flightCall is one in-progress compile; latecomers wait on done.
type flightCall struct {
	done chan struct{}
	p    *Protocol
	err  error
}

// rekeyPoint switches the master seed for epochs >= from.
type rekeyPoint struct {
	from uint64
	seed int64
}

// NewRotation validates the specification once and prepares the epoch
// cache (bounded at DefaultVersionWindow; see Bound). opts.Seed acts as
// the initial master seed; opts.PerNode/Only/Exclude apply to every
// version.
func NewRotation(source string, opts ObfuscationOptions) (*Rotation, error) {
	return NewRotationCache(source, opts, 0, 0, nil)
}

// NewRotationCache is NewRotation with an explicit compiled-version
// cache geometry and an optional artifact store behind the cache. window
// bounds the total number of cached versions (0 means
// DefaultVersionWindow, negative means unbounded) and shards picks the
// lock-shard count (0 means lru.DefaultShards; 1 degenerates to a
// single-mutex cache, the pre-sharding behavior).
//
// With a non-nil store, versions present in the store are restored
// instead of compiled, and versions this process compiles are persisted
// for the rest of the fleet. The store is consulted inside the compile
// singleflight, so an epoch storm costs one disk load, not one per
// session. Restored versions are interoperable with compiled ones by
// construction: the transformed graph (the part both peers must agree
// on byte-for-byte) travels in the artifact, while the per-dialect RNG
// is re-derived from the version seed. The RNG only feeds pad bytes and
// random split halves, which every parser skips, so a restored sender
// and a compiled receiver (or vice versa) always understand each other.
//
// Epoch 0 is loaded or compiled eagerly, so configuration errors surface
// here; its compile is a demand compile, counted and timed as one.
func NewRotationCache(source string, opts ObfuscationOptions, window, shards int, store *artifact.Store) (*Rotation, error) {
	if window == 0 {
		window = DefaultVersionWindow
	} else if window < 0 {
		window = 0 // lru: unbounded
	}
	r := &Rotation{
		source: source,
		opts:   opts,
		cache: lru.NewSharded[versionKey, *Protocol](shards, window, func(k versionKey) uint64 {
			return lru.Mix64(uint64(k.family) ^ lru.Mix64(k.epoch+1))
		}, nil),
		art: store,
	}
	r.self.rot = r
	k := versionKey{family: opts.Seed, epoch: 0}
	if store != nil {
		// Parse once up front: configuration errors surface even when
		// every version loads from the store, and the parsed graph
		// doubles as the shared Original of restored Protocols.
		orig, err := spec.Parse(source)
		if err != nil {
			return nil, fmt.Errorf("rotation: %w", err)
		}
		r.orig = orig
		r.artDigest = artifact.SpecDigest(source, opts.PerNode, opts.Only, opts.Exclude)
		if p, ok := r.loadArtifact(k); ok {
			r.cache.Put(k, p)
			return r, nil
		}
	}
	probe := opts
	probe.Seed = deriveSeed(opts.Seed, 0)
	start := time.Now()
	p, err := Compile(source, probe)
	if err != nil {
		return nil, fmt.Errorf("rotation: %w", err)
	}
	r.stats.Compiles.Add(1)
	r.stats.DemandCompileNanos.ObserveDuration(time.Since(start))
	r.cache.Put(k, p)
	if store != nil {
		r.saveArtifact(k, p)
	}
	return r, nil
}

// View mints an independent rekey view of the dialect family. All views
// of one Rotation share the compiled-version cache (and its compile
// deduplication) but each records its own rekey points, so concurrent
// sessions rekey with their respective peers without interfering. A
// fresh view starts on the base family with no rekey points.
func (r *Rotation) View() *View {
	return &View{rot: r}
}

// Bound re-bounds the compiled-version cache to at most window versions
// in total, evicting the least recently used versions immediately. A
// window <= 0 removes the bound.
func (r *Rotation) Bound(window int) {
	r.cache.SetCap(window)
}

// CacheLen returns the number of compiled versions currently cached,
// across every family and shard.
func (r *Rotation) CacheLen() int {
	return r.cache.Len()
}

// Stats snapshots the Rotation's compile activity and its shared
// version cache's traffic. Snapshots are plain values; diff two to
// measure an interval.
func (r *Rotation) Stats() metrics.RotationStats {
	st := r.stats.Snapshot()
	st.Cache = r.cache.Stats()
	return st
}

// Prefetch compiles the given epoch's version of the base family ahead
// of need — what a rotation daemon calls before the epoch boundary so
// sessions never compile on their hot path. It reports whether this
// call performed the compile (false: the version was already cached or
// another goroutine's compile was joined). Prefetched compiles are
// attributed separately in Stats (RotationStats.PrefetchCompiles), so
// observers can verify that boundary crossings cost sessions zero
// demand compiles.
//
// Prefetch resolves the family through the default view, exactly like
// Version: endpoints never rekey their default view, so this is the
// base family every non-rekeyed session of the endpoint speaks. A
// session that negotiated an in-band rekey switched its own view to a
// fresh family — its post-boundary epochs are keyed under that family
// and are never served these base-family entries.
func (r *Rotation) Prefetch(epoch uint64) (compiled bool, err error) {
	r.self.mu.Lock()
	family := r.self.familySeedLocked(epoch)
	r.self.mu.Unlock()
	_, compiled, err = r.versionFor(family, epoch, true)
	return compiled, err
}

// PrefetchFamily compiles the given epoch's version of an explicit
// rekeyed seed family ahead of need — the companion to Prefetch for the
// families ActiveFamilies reports, so a daemon keeps rekeyed sessions as
// boundary-compile-free as base-family ones. It reports whether this
// call performed the compile.
func (r *Rotation) PrefetchFamily(family int64, epoch uint64) (compiled bool, err error) {
	_, compiled, err = r.versionFor(family, epoch, true)
	return compiled, err
}

// ActiveFamilies returns the rekeyed seed families considered live at
// the given current epoch — families some view rekeyed into and some
// session demanded a version of within the last familyIdleEpochs
// epochs. Stale entries are pruned as a side effect, so the table stays
// bounded by the set of genuinely live families.
func (r *Rotation) ActiveFamilies(cur uint64) []ActiveFamily {
	r.famMu.Lock()
	defer r.famMu.Unlock()
	out := make([]ActiveFamily, 0, len(r.fams))
	for seed, tr := range r.fams {
		if cur > tr.lastSeen+familyIdleEpochs {
			delete(r.fams, seed)
			continue
		}
		out = append(out, ActiveFamily{Seed: seed, From: tr.from})
	}
	return out
}

// noteRekey registers a freshly rekeyed family (a view's rekey point or
// an imported resumption lineage) in the liveness table.
func (r *Rotation) noteRekey(family int64, from uint64) {
	if family == r.opts.Seed {
		return
	}
	r.famMu.Lock()
	defer r.famMu.Unlock()
	if r.fams == nil {
		r.fams = make(map[int64]familyTrack)
	}
	tr, ok := r.fams[family]
	if !ok {
		if len(r.fams) >= maxTrackedFamilies {
			return
		}
		tr = familyTrack{from: from, lastSeen: from}
	}
	if from < tr.from {
		tr.from = from
	}
	if from > tr.lastSeen {
		tr.lastSeen = from
	}
	r.fams[family] = tr
}

// touchFamily refreshes (or re-registers) a rekeyed family's liveness
// on a demand lookup. Demand lookups only come from views resolving
// their own rekey points, so an absent entry means the family was
// pruned while its session idled — it re-enters here with the demanded
// epoch as a conservative lineage start, and the table stays bounded
// by maxTrackedFamilies regardless.
func (r *Rotation) touchFamily(family int64, epoch uint64) {
	if family == r.opts.Seed {
		return
	}
	r.famMu.Lock()
	tr, ok := r.fams[family]
	switch {
	case ok:
		if epoch > tr.lastSeen {
			tr.lastSeen = epoch
			r.fams[family] = tr
		}
	case len(r.fams) < maxTrackedFamilies:
		if r.fams == nil {
			r.fams = make(map[int64]familyTrack)
		}
		r.fams[family] = familyTrack{from: epoch, lastSeen: epoch}
	}
	r.famMu.Unlock()
}

// Version returns the protocol of the given epoch under the Rotation's
// default view, compiling it on first use (or again after eviction).
// The same epoch always yields the same transformed graph on every peer
// that shares the rotation's history of (spec, options, rekey points).
func (r *Rotation) Version(epoch uint64) (*Protocol, error) {
	return r.self.Version(epoch)
}

// Graph returns the transformed message-format graph of the given epoch
// under the default view. It is the session transport's Versioner
// interface (internal/session sits below this package and traffics in
// graphs, not Protocols).
func (r *Rotation) Graph(epoch uint64) (*graph.Graph, error) {
	return r.self.Graph(epoch)
}

// Rekey switches the default view's master seed for every epoch >=
// from. See View.Rekey. Every session using the Rotation directly as
// its Versioner sees the switch, so a rekeying session must own its
// Rotation; sessions sharing one family take a View each instead, as
// Endpoint sessions do.
func (r *Rotation) Rekey(from uint64, seed int64) error {
	return r.self.Rekey(from, seed)
}

// DropRekey removes the default view's most recent rekey point if it
// matches (from, seed) exactly. See View.DropRekey.
func (r *Rotation) DropRekey(from uint64, seed int64) error {
	return r.self.DropRekey(from, seed)
}

// ControlPad derives the default view's control-frame masking pad. See
// View.ControlPad.
func (r *Rotation) ControlPad(epoch uint64, n int) []byte {
	return r.self.ControlPad(epoch, n)
}

// PacketPad derives the default view's packet masking pad. See
// View.PacketPad.
func (r *Rotation) PacketPad(epoch uint64, n int) []byte {
	return r.self.PacketPad(epoch, n)
}

// versionFor returns the compiled version of (family, epoch), serving
// it from the sharded cache when present. Misses compile outside any
// cache lock; concurrent misses of the same key share one compile.
// compiled reports whether this call performed the compile itself;
// prefetch attributes that compile to a prefetcher in the stats.
func (r *Rotation) versionFor(family int64, epoch uint64, prefetch bool) (p *Protocol, compiled bool, err error) {
	if !prefetch {
		// A demand lookup is the liveness signal of a rekeyed family; it
		// runs once per (session, epoch) thanks to the sessions' private
		// dialect caches, so the map touch is off the per-message path.
		r.touchFamily(family, epoch)
	}
	k := versionKey{family: family, epoch: epoch}
	if p, ok := r.cache.Get(k); ok {
		return p, false, nil
	}
	r.flightMu.Lock()
	if c, ok := r.flight[k]; ok {
		r.flightMu.Unlock()
		r.stats.CompileDedup.Add(1)
		<-c.done
		return c.p, false, c.err
	}
	// Re-check under the flight lock: the previous flight for this key
	// may have completed (and cached) between our miss and the lock.
	// Quiet lookup — this is still the same logical miss counted above,
	// served by that flight's compile, so it counts as a dedup.
	if p, ok := r.cache.GetQuiet(k); ok {
		r.flightMu.Unlock()
		r.stats.CompileDedup.Add(1)
		return p, false, nil
	}
	c := &flightCall{done: make(chan struct{})}
	if r.flight == nil {
		r.flight = make(map[versionKey]*flightCall)
	}
	r.flight[k] = c
	r.flightMu.Unlock()

	// A store hit is not a compile: the work happened in another
	// process (or a previous life of this one), so DemandCompiles
	// stays untouched and only ArtifactLoads moves.
	if r.art != nil {
		if ap, ok := r.loadArtifact(k); ok {
			r.cache.Put(k, ap)
			c.p, c.err = ap, nil
			r.flightMu.Lock()
			delete(r.flight, k)
			r.flightMu.Unlock()
			close(c.done)
			return ap, false, nil
		}
	}
	opts := r.opts
	opts.Seed = deriveSeed(family, epoch)
	r.stats.Compiles.Add(1)
	if prefetch {
		r.stats.PrefetchCompiles.Add(1)
	}
	start := time.Now()
	p, err = Compile(r.source, opts)
	if prefetch {
		r.stats.PrefetchCompileNanos.ObserveDuration(time.Since(start))
	} else {
		r.stats.DemandCompileNanos.ObserveDuration(time.Since(start))
	}
	if err != nil {
		r.stats.CompileErrors.Add(1)
		err = fmt.Errorf("rotation epoch %d: %w", epoch, err)
	} else {
		r.cache.Put(k, p)
		if r.art != nil {
			r.saveArtifact(k, p)
		}
	}
	c.p, c.err = p, err

	r.flightMu.Lock()
	delete(r.flight, k)
	r.flightMu.Unlock()
	close(c.done)
	return p, true, err
}

// View is one session's window onto a shared Rotation: it resolves
// epochs to compiled versions through the Rotation's shared cache while
// holding the session-local rekey state (which master seed family is
// active from which epoch onward). core.Rotation documents the split;
// internal/session consumes a View through its Versioner, Rekeyer and
// Padder interfaces.
//
// A View is safe for concurrent use.
type View struct {
	rot *Rotation

	mu     sync.Mutex
	rekeys []rekeyPoint // ascending by from
}

// Rotation returns the shared Rotation this view resolves through.
func (v *View) Rotation() *Rotation { return v.rot }

// Version returns the protocol of the given epoch under this view's
// rekey history, compiling it through the shared cache on first use.
func (v *View) Version(epoch uint64) (*Protocol, error) {
	v.mu.Lock()
	family := v.familySeedLocked(epoch)
	v.mu.Unlock()
	p, _, err := v.rot.versionFor(family, epoch, false)
	return p, err
}

// Graph returns the transformed message-format graph of the given
// epoch — the session transport's Versioner interface.
func (v *View) Graph(epoch uint64) (*graph.Graph, error) {
	p, err := v.Version(epoch)
	if err != nil {
		return nil, err
	}
	return p.Graph, nil
}

// Rekey switches this view's master seed for every epoch >= from. Rekey
// points must not move backwards: a from below the latest recorded
// point is rejected, while a from equal to it replaces the point (how
// the session layer's deterministic tie-break between crossed proposals
// settles). Epochs before from keep deriving from the previously active
// family. Because the shared cache is keyed by (family, epoch), a rekey
// is pure metadata: no cached versions are invalidated, and other views
// of the same Rotation are untouched.
func (v *View) Rekey(from uint64, seed int64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n := len(v.rekeys); n > 0 && from <= v.rekeys[n-1].from {
		if from < v.rekeys[n-1].from {
			return fmt.Errorf("rotation: rekey from epoch %d predates rekey point %d", from, v.rekeys[n-1].from)
		}
		v.rekeys[n-1].seed = seed
	} else {
		v.rekeys = append(v.rekeys, rekeyPoint{from: from, seed: seed})
	}
	v.rot.stats.Rekeys.Add(1)
	v.rot.noteRekey(seed, from)
	return nil
}

// RekeyLineage exports the view's rekey history as parallel slices
// (ascending boundary epochs and the seed each switches to) — the
// session migration subsystem's raw material for a resumption ticket.
// The slices are fresh copies; mutating them does not affect the view.
func (v *View) RekeyLineage() (froms []uint64, seeds []int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.rekeys) == 0 {
		return nil, nil
	}
	froms = make([]uint64, len(v.rekeys))
	seeds = make([]int64, len(v.rekeys))
	for i, p := range v.rekeys {
		froms[i] = p.from
		seeds[i] = p.seed
	}
	return froms, seeds
}

// ImportRekeys replays an exported rekey lineage into this view — how a
// resumed session reconstructs the family history a ticket describes.
// The view must be pristine (no rekey points of its own): a resumption
// lineage replaces a history, it does not merge with one. Boundary
// epochs must be strictly ascending and nonzero. Unlike Rekey, imports
// are not counted in RotationStats.Rekeys — they replay handshakes that
// already happened, on this or another endpoint.
func (v *View) ImportRekeys(froms []uint64, seeds []int64) error {
	if len(froms) != len(seeds) {
		return fmt.Errorf("rotation: lineage of %d boundaries with %d seeds", len(froms), len(seeds))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.rekeys) != 0 {
		return fmt.Errorf("rotation: cannot import a lineage over %d existing rekey points", len(v.rekeys))
	}
	pts := make([]rekeyPoint, len(froms))
	last := uint64(0)
	for i := range froms {
		if froms[i] <= last {
			return fmt.Errorf("rotation: lineage boundary %d not ascending (after %d)", froms[i], last)
		}
		last = froms[i]
		pts[i] = rekeyPoint{from: froms[i], seed: seeds[i]}
	}
	v.rekeys = pts
	if n := len(pts); n > 0 {
		// Only the latest family is a prefetch target: earlier lineage
		// entries cover past epochs the session will never demand again.
		v.rot.noteRekey(pts[n-1].seed, pts[n-1].from)
	}
	return nil
}

// SealResume seals a resumption-state payload into an opaque ticket
// under the key derived from the Rotation's base master seed — the
// session layer's TicketSealer interface. Any view of any Rotation
// built from the same (spec, seed) can open the result.
func (v *View) SealResume(plain []byte) ([]byte, error) {
	return SealTicket(v.rot.opts.Seed, plain)
}

// OpenResume verifies and unseals a resumption ticket sealed by any
// peer sharing the base master seed. Forged or corrupted tickets fail
// with an error wrapping ErrTicketInvalid.
func (v *View) OpenResume(ticket []byte) ([]byte, error) {
	return OpenTicket(v.rot.opts.Seed, ticket)
}

// DropRekey removes the view's most recent rekey point if it matches
// (from, seed) exactly: the session layer's rollback when a rekey was
// applied locally but the handshake step that was supposed to commit it
// (the dialect compile or the ack write) failed, so the peer never
// learned of the switch.
func (v *View) DropRekey(from uint64, seed int64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := len(v.rekeys)
	if n == 0 || v.rekeys[n-1] != (rekeyPoint{from: from, seed: seed}) {
		return fmt.Errorf("rotation: no rekey point (%d, %d) to drop", from, seed)
	}
	v.rekeys = v.rekeys[:n-1]
	v.rot.stats.RekeyRollbacks.Add(1)
	return nil
}

// ControlPad derives the deterministic masking pad the session layer
// XORs over in-band control payloads (the rekey handshake). The pad is
// a SHA-256 stream keyed by the seed family active at the frame's epoch
// under a fixed domain string, so the known plaintext at the front of a
// control payload (the magic, a near-current epoch) cannot be inverted
// into the keystream or the family seed the way a plain PRNG stream
// could, and a forged frame fails the magic check after unmasking.
//
// This is obfuscation-grade protection, deliberately in the paper's
// threat model: the family master seed is a 63-bit secret and the
// construction is not a vetted AEAD. Deployments that need
// cryptographic confidentiality of the rekeyed seed should run the
// session over an encrypted channel; the masking then only keeps the
// control plane indistinguishable from payload bytes.
func (v *View) ControlPad(epoch uint64, n int) []byte {
	v.mu.Lock()
	family := v.familySeedLocked(epoch)
	v.mu.Unlock()
	var msg [24]byte
	binary.BigEndian.PutUint64(msg[0:8], uint64(family))
	binary.BigEndian.PutUint64(msg[8:16], epoch)
	pad := make([]byte, 0, (n+sha256.Size-1)/sha256.Size*sha256.Size)
	for ctr := uint64(0); len(pad) < n; ctr++ {
		binary.BigEndian.PutUint64(msg[16:24], ctr)
		h := sha256.New()
		h.Write([]byte("protoobf control pad v1"))
		h.Write(msg[:])
		pad = h.Sum(pad)
	}
	return pad[:n]
}

// PacketPad derives the deterministic masking pad the datagram session
// layer XORs over packet bytes: the zero-overhead mode's structural
// prefix on data packets, and the whole header+payload of control
// packets. It is the same SHA-256 stream construction as ControlPad but
// under its own domain string, so packet masking bytes can never be
// replayed against the stream layer's control plane (or vice versa) —
// and, like the dialect derivation, it is keyed by the family active at
// the epoch, so the pad rotates every epoch and jumps on rekey. The pad
// of one epoch is static across packets (an EtherGuard-style
// limitation, documented in docs/DATAGRAM.md): zero added bytes per
// packet leaves no room for a per-packet nonce.
func (v *View) PacketPad(epoch uint64, n int) []byte {
	v.mu.Lock()
	family := v.familySeedLocked(epoch)
	v.mu.Unlock()
	var msg [24]byte
	binary.BigEndian.PutUint64(msg[0:8], uint64(family))
	binary.BigEndian.PutUint64(msg[8:16], epoch)
	pad := make([]byte, 0, (n+sha256.Size-1)/sha256.Size*sha256.Size)
	for ctr := uint64(0); len(pad) < n; ctr++ {
		binary.BigEndian.PutUint64(msg[16:24], ctr)
		h := sha256.New()
		h.Write([]byte("protoobf packet pad v1"))
		h.Write(msg[:])
		pad = h.Sum(pad)
	}
	return pad[:n]
}

// ShapeSeed derives the traffic-shaping seed of an epoch from the seed
// family active at it — the session layer's ShapeSeeder interface. The
// derivation is domain-separated from the dialect derivation (a
// different constant folded into the master before the finalizer), so
// an observer who somehow learned the shape stream would still know
// nothing about the transformation selections, and vice versa. Because
// it follows the family, the shape rotates at every epoch boundary and
// jumps with every rekey, exactly like the dialect does.
func (v *View) ShapeSeed(epoch uint64) int64 {
	v.mu.Lock()
	family := v.familySeedLocked(epoch)
	v.mu.Unlock()
	const shapeDomain = 0x73686164 // "shad"
	return deriveSeed(family^shapeDomain, epoch)
}

// familySeedLocked returns the master seed active at epoch. Callers
// hold v.mu.
func (v *View) familySeedLocked(epoch uint64) int64 {
	seed := v.rot.opts.Seed
	for _, p := range v.rekeys {
		if p.from > epoch {
			break
		}
		seed = p.seed
	}
	return seed
}

// deriveSeed mixes the master seed and the epoch with an
// SplitMix64-style finalizer so adjacent epochs yield unrelated
// transformation selections.
func deriveSeed(master int64, epoch uint64) int64 {
	z := uint64(master) + 0x9E3779B97F4A7C15*(epoch+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // keep it positive for readability in summaries
}
