// Package protoobf is a Go implementation of specification-based protocol
// obfuscation (Duchêne, Alata, Nicomette, Kaâniche, Le Guernic:
// "Specification-based Protocol Obfuscation", DSN 2018).
//
// The framework obfuscates a communication protocol at the level of its
// message-format specification. The specification is compiled into a
// message format graph; invertible generic transformations (SplitAdd,
// SplitCat, ConstXor, BoundaryChange, PadInsert, ReadFromEnd, TabSplit,
// RepSplit, ChildMove, ...) are applied randomly to the graph; and the
// framework derives both a runtime serializer/parser and the Go source
// code of a standalone protocol library for the transformed format.
//
// Aggregation transformations execute inside the field setters and
// getters, ordering transformations during serialization, so the plain
// message never exists contiguously in process memory — which is what
// makes probe placement and classic protocol reverse engineering hard
// (the paper's §II-C challenges).
//
// # Quick start
//
// One-shot message work — compile a dialect, build, serialize, parse:
//
//	proto, err := protoobf.Compile(mySpec, protoobf.Options{PerNode: 2, Seed: 42})
//	msg := proto.NewMessage()
//	s := msg.Scope()
//	_ = s.SetUint("txid", 7)
//	wireBytes, err := proto.Serialize(msg)
//	back, err := proto.Parse(wireBytes)
//
// Live traffic — compile the dialect family once into an Endpoint and
// mint any number of concurrent sessions from it (the paper's §VIII
// deployment model: one compiled family, many peers, a new dialect
// every epoch):
//
//	ep, err := protoobf.NewEndpoint(mySpec, protoobf.Options{PerNode: 2, Seed: 42},
//	    protoobf.WithSchedule(protoobf.NewSchedule(genesis, time.Hour)))
//	ln, err := ep.Listen("tcp", ":9000")
//	for {
//	    sess, err := ln.Accept() // a ready session; sess.Close() when done
//	    ...
//	}
//
// Both communicating peers must be built from the same (spec, seed,
// options) triple; compilation is deterministic, so every peer derives
// the same dialect for every epoch with no coordination (paper §I).
package protoobf

import (
	"io"
	"time"

	"protoobf/internal/core"
	"protoobf/internal/graph"
	"protoobf/internal/msgtree"
	"protoobf/internal/session"
	"protoobf/internal/session/sched"
	"protoobf/internal/transform"
)

// Protocol is a compiled, possibly obfuscated message format. See
// internal/core for the orchestration details.
type Protocol = core.Protocol

// Options selects the obfuscation workload.
type Options = core.ObfuscationOptions

// Message is a message AST under construction or parsed.
type Message = msgtree.Message

// Scope is the accessor cursor used to set and get fields by their
// original specification names.
type Scope = msgtree.Scope

// Graph is a message format graph (advanced use: inspection, custom
// transformation pipelines).
type Graph = graph.Graph

// Rotation derives deterministic protocol versions per epoch, the
// deployment model of the paper's conclusion (new obfuscated versions at
// regular intervals). Endpoint is the usual owner of a Rotation; direct
// use remains for inspection and custom pipelines.
type Rotation = core.Rotation

// Compile parses a message-format specification and applies the
// requested obfuscation. The specification language is documented in
// internal/spec.
func Compile(source string, opts Options) (*Protocol, error) {
	return core.Compile(source, opts)
}

// NewRotation prepares an epoch-keyed family of protocol versions for
// the same specification. Peers sharing (spec, options) agree on every
// epoch's dialect without further coordination. Most callers want
// NewEndpoint instead, which owns a Rotation and mints share-safe
// sessions from it.
func NewRotation(source string, opts Options) (*Rotation, error) {
	return core.NewRotation(source, opts)
}

// TransformNames lists the generic transformations of the catalog
// (table I of the paper), usable in Options.Only / Options.Exclude.
func TransformNames() []string {
	var out []string
	for _, t := range transform.Catalog() {
		out = append(out, t.Name())
	}
	return out
}

// Session is an obfuscated message session over a live byte stream: each
// frame is tagged with its dialect epoch outside the obfuscated payload,
// and the dialect rotates mid-session — on a wall-clock schedule, by
// explicit Rotate/Advance calls, or by following the peer. Sessions can
// also rekey in-band (Session.Rekey, WithRekeyEvery on the epoch clock,
// WithRekeyAfterBytes on traffic volume), switching the whole dialect
// family to a fresh obfuscation seed — and they survive the connection
// they run on: Session.Export seals the resumable state into an opaque
// ticket, and Endpoint.Resume/DialResume reconstruct the session on a
// brand-new byte stream, rekeyed family and all. Sessions are minted
// from an Endpoint; see internal/session for the transport details.
type Session = session.Conn

// Schedule derives dialect epochs from coarse wall-clock time: epoch e
// spans [genesis + e*interval, genesis + (e+1)*interval). Peers sharing
// (genesis, interval) converge on the same epoch — and therefore the
// same dialect — from their own clocks, with no coordination even after
// a partition. The clock is injectable (WithClock) for tests and
// simulations.
type Schedule = sched.Scheduler

// NewSchedule returns a wall-clock epoch schedule ticking every interval
// from genesis. It panics if interval is not positive.
func NewSchedule(genesis time.Time, interval time.Duration) *Schedule {
	return sched.New(genesis, interval)
}

// Pipe returns the two ends of a buffered in-memory duplex stream —
// the in-process stand-in for a network connection in tests, examples
// and benchmarks. Unlike net.Pipe it is buffered, so one goroutine can
// Send on a session over one end and then Recv on the session over the
// other.
func Pipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	return session.NewDuplex()
}
