// Package session is the obfuscated session transport of the framework:
// it carries obfuscated messages over a live byte stream and rotates the
// protocol dialect mid-connection, realizing the paper's deployment model
// (§VIII — "deployment of new versions, at regular intervals") on an
// actual connection rather than in memory.
//
// The package is split in two layers, mirroring the transport/format
// split of internal/frame:
//
//   - Transport frames raw payloads over any io.ReadWriter, tagging every
//     frame with a dialect epoch (outside the obfuscated bytes, next to
//     the length prefix). It knows nothing about protocol graphs: Conn
//     sends and receives through it, and raw payload probes reach it
//     through Conn.Transport.
//
//   - Conn adds the dialect logic on top of a core.Rotation (or any
//     Versioner): Send serializes a message with the dialect its graph
//     belongs to, Recv decodes each incoming frame with the cached
//     protocol version of the frame's epoch, and the epoch advances
//     mid-session — the peer follows automatically because receiving a
//     higher epoch raises the local send epoch.
//
// Epochs advance three ways, composable per connection (Options):
//
//   - Wall-clock scheduling (Options.Schedule, internal/session/sched):
//     the session adopts the schedule's epoch on every NewMessage/Recv,
//     so peers sharing (genesis, interval) converge on the same dialect
//     from their own clocks — including across partitions, where the
//     forged-epoch bound is measured after adopting the local schedule
//     epoch and therefore never trips on an honest reconnect.
//
//   - Explicit Advance/Rotate calls, the manual control used by the
//     differential tests and the live-rotation example.
//
//   - The follow rule: a received data frame whose epoch exceeds the
//     current one (within MaxEpochLead, and only after its payload
//     decodes) pulls the session forward.
//
// Independent of how epochs move, the dialect family itself can be
// reseeded in flight: Rekey (or Options.RekeyEvery) runs an in-band
// handshake over reserved control frames — a masked (epoch, seed)
// proposal acknowledged before either side sends under the new family,
// with a deterministic tie-break when both peers propose at once. The
// handshake progresses on the Recv path of both peers, so it completes
// as a side effect of normal traffic.
//
// Orthogonal to all of the above, Options.Shape enables traffic
// shaping (internal/session/shape): outgoing data-frame payloads are
// padded to lengths sampled from the profile's bins and split at its
// MTU, departures are paced by a sampled inter-frame gap, and an idle
// session emits KindCover decoy frames — which every receiver, shaped
// or not, silently discards. The shape is derived per epoch from the
// Versioner's family seed (the ShapeSeeder interface), so it rotates
// with the dialect and survives resumption. Shaping is symmetric:
// both peers must run the same profile, because the shaped payload
// carries an in-band trailer (see shaping.go).
//
// Sessions also survive the byte stream they run on: Export seals the
// resumable control-plane state (epoch, rekey lineage, traffic
// odometer) into an opaque ticket keyed on the dialect family's base
// secret, and ResumeConn replays a ticket onto a brand-new
// io.ReadWriter — including sessions that have rekeyed, which a fresh
// connection could never rejoin. The acceptor side is any ordinary
// Conn: the KindResume control frame announces a resuming peer in-band
// on the Recv path, bound-checked and tag-verified like the rekey
// handshake (see resume.go).
//
// Compiled dialects are cached per connection in an LRU bounded by
// Options.CacheWindow (internal/lru) — part of the EpochCore stream and
// datagram (package dgram) sessions share — and core.Rotation bounds its
// shared compiled-version cache the same way (sharded, strict total
// bound), keeping long-lived sessions at O(window) memory across
// unbounded epochs; evicted epochs recompile deterministically on
// demand. Many concurrent Conns of one dialect family each take a
// core.View of the same Rotation as their Versioner — the public
// Endpoint does exactly this — sharing compiled versions while keeping
// rekey state private per connection; a Conn handed the Rotation itself
// uses the Rotation's built-in default view and must then own it
// exclusively as soon as rekeying is enabled.
//
// Concurrency: a single writer mutex serializes frame writes, a single
// reader mutex serializes frame reads, and the current epoch is read
// lock-free through an atomic, so Epoch() on the hot path never contends
// with senders. Steady-state Send/Recv reuses pooled buffers shared with
// internal/frame and does not allocate per message on the payload path.
//
// See docs/ARCHITECTURE.md for the frame format (kind|length word, epoch
// header) and the control-plane design as a whole.
package session
