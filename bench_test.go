// Benchmarks regenerating the paper's evaluation artifacts (§VII).
//
// One benchmark per table and figure:
//
//	BenchmarkTableIII_HTTP        — table III (HTTP potency & costs)
//	BenchmarkTableIV_Modbus       — table IV (TCP-Modbus potency & costs)
//	BenchmarkFig4_HTTPTime        — figure 4 (HTTP time vs #transforms, linear fit)
//	BenchmarkFig5_ModbusTime      — figure 5 (Modbus time vs #transforms, linear fit)
//	BenchmarkFig6_HTTPPotency     — figure 6 (HTTP normalized potency curves)
//	BenchmarkFig7_ModbusPotency   — figure 7 (Modbus normalized potency curves)
//	BenchmarkResilience           — §VII-D PRE degradation
//	BenchmarkAblation_Modbus      — per-transformation ablation
//
// plus micro-benchmarks of the runtime costs (serialize/parse at each
// obfuscation level, obfuscation itself, code generation).
//
// Paper-scale numbers (1000 runs per level) are produced by
// cmd/protoobf-bench; the benchmark campaigns here use reduced run
// counts so that `go test -bench=.` stays in the minutes range, while
// the measured iteration is one full experiment (obfuscate both
// directions + generate code + measure a message workload).
package protoobf_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"protoobf"
	"protoobf/internal/bench"
	"protoobf/internal/codegen"
	"protoobf/internal/core"
	"protoobf/internal/graph"
	"protoobf/internal/msgtree"
	"protoobf/internal/protocols/httpmsg"
	"protoobf/internal/protocols/modbus"
	"protoobf/internal/rng"
	"protoobf/internal/session"
	"protoobf/internal/transform"
	"protoobf/internal/wire"
)

// campaignBench measures one full experiment per iteration and logs the
// paper-style table computed from a small campaign.
func campaignBench(b *testing.B, protocol string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(bench.Config{
			Protocol: protocol, Runs: 1, Levels: []int{2}, MsgsPerRun: 5, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res, err := bench.Run(bench.Config{Protocol: protocol, Runs: 8, MsgsPerRun: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", res.Table())
}

func BenchmarkTableIII_HTTP(b *testing.B)  { campaignBench(b, "http") }
func BenchmarkTableIV_Modbus(b *testing.B) { campaignBench(b, "modbus") }

// figureTimeBench reports the fitted slopes and correlations of the time
// figures as custom benchmark metrics.
func figureTimeBench(b *testing.B, protocol string) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.Config{Protocol: protocol, Runs: 4, MsgsPerRun: 8, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		parse, ser, err := res.TimeFits()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parse.Slope*1e6, "parse-ns/transf")
		b.ReportMetric(ser.Slope*1e6, "ser-ns/transf")
		b.ReportMetric(parse.R, "parse-corr")
		b.ReportMetric(ser.R, "ser-corr")
		if i == 0 {
			b.Logf("parse fit: %v", parse)
			b.Logf("serialize fit: %v", ser)
		}
	}
}

func BenchmarkFig4_HTTPTime(b *testing.B)   { figureTimeBench(b, "http") }
func BenchmarkFig5_ModbusTime(b *testing.B) { figureTimeBench(b, "modbus") }

// figurePotencyBench reports the normalized potency curve endpoints.
func figurePotencyBench(b *testing.B, protocol string) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.Config{Protocol: protocol, Runs: 3, MsgsPerRun: 4, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Levels[len(res.Levels)-1]
		b.ReportMetric(last.Lines.Avg(), "lines-x@4")
		b.ReportMetric(last.Structs.Avg(), "structs-x@4")
		b.ReportMetric(last.CGSize.Avg(), "cgsize-x@4")
		b.ReportMetric(last.CGDepth.Avg(), "cgdepth-x@4")
		if i == 0 {
			b.Logf("\n%s", res.PotencyFigure())
		}
	}
}

func BenchmarkFig6_HTTPPotency(b *testing.B)   { figurePotencyBench(b, "http") }
func BenchmarkFig7_ModbusPotency(b *testing.B) { figurePotencyBench(b, "modbus") }

func BenchmarkResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunResilience(bench.ResilienceConfig{
			PerType: 8, Levels: []int{0, 1}, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		plain, obf := res.Levels[0], res.Levels[1]
		b.ReportMetric(plain.PairwiseF1, "plain-pairF1")
		b.ReportMetric(obf.PairwiseF1, "obf1-pairF1")
		b.ReportMetric(plain.FieldF1, "plain-fieldF1")
		b.ReportMetric(obf.FieldF1, "obf1-fieldF1")
		if i == 0 {
			b.Logf("\n%s", res.Table())
		}
	}
}

func BenchmarkAblation_Modbus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblation("modbus", 4, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Table())
		}
	}
}

// --- micro-benchmarks: runtime costs per message --------------------------

type fixture struct {
	g    *graph.Graph
	msgs []*msgtree.Message
	wire [][]byte
	r    *rng.R
}

func modbusFixture(b *testing.B, perNode int) *fixture {
	b.Helper()
	g, err := modbus.RequestGraph()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(17)
	if perNode > 0 {
		res, err := transform.Obfuscate(g, transform.Options{PerNode: perNode}, r)
		if err != nil {
			b.Fatal(err)
		}
		g = res.Graph
	}
	f := &fixture{g: g, r: r}
	for i := 0; i < 16; i++ {
		req := modbus.RandomRequest(r)
		m, err := modbus.BuildRequest(g, r, req)
		if err != nil {
			b.Fatal(err)
		}
		data, err := wire.Serialize(m)
		if err != nil {
			b.Fatal(err)
		}
		f.msgs = append(f.msgs, m)
		f.wire = append(f.wire, data)
	}
	return f
}

func httpFixture(b *testing.B, perNode int) *fixture {
	b.Helper()
	g, err := httpmsg.RequestGraph()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(23)
	if perNode > 0 {
		res, err := transform.Obfuscate(g, transform.Options{PerNode: perNode}, r)
		if err != nil {
			b.Fatal(err)
		}
		g = res.Graph
	}
	f := &fixture{g: g, r: r}
	for i := 0; i < 16; i++ {
		req := httpmsg.RandomRequest(r)
		m, err := httpmsg.BuildRequest(g, r, req)
		if err != nil {
			b.Fatal(err)
		}
		data, err := wire.Serialize(m)
		if err != nil {
			b.Fatal(err)
		}
		f.msgs = append(f.msgs, m)
		f.wire = append(f.wire, data)
	}
	return f
}

func benchSerialize(b *testing.B, f *fixture) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Serialize(f.msgs[i%len(f.msgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchParse(b *testing.B, f *fixture) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Parse(f.g, f.wire[i%len(f.wire)], f.r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeModbus(b *testing.B) {
	for _, perNode := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("perNode=%d", perNode), func(b *testing.B) {
			benchSerialize(b, modbusFixture(b, perNode))
		})
	}
}

func BenchmarkParseModbus(b *testing.B) {
	for _, perNode := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("perNode=%d", perNode), func(b *testing.B) {
			benchParse(b, modbusFixture(b, perNode))
		})
	}
}

func BenchmarkSerializeHTTP(b *testing.B) {
	for _, perNode := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("perNode=%d", perNode), func(b *testing.B) {
			benchSerialize(b, httpFixture(b, perNode))
		})
	}
}

func BenchmarkParseHTTP(b *testing.B) {
	for _, perNode := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("perNode=%d", perNode), func(b *testing.B) {
			benchParse(b, httpFixture(b, perNode))
		})
	}
}

// BenchmarkObfuscate measures the transformation engine itself (part of
// the paper's offline "generation time").
func BenchmarkObfuscate(b *testing.B) {
	g, err := modbus.RequestGraph()
	if err != nil {
		b.Fatal(err)
	}
	// perNode=2 is the level every perfbench workload compiles at.
	for _, perNode := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("perNode=%d", perNode), func(b *testing.B) {
			r := rng.New(3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := transform.Obfuscate(g, transform.Options{PerNode: perNode}, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- session transport benchmarks -----------------------------------------

// sessionPingSpec is a small reference-free message: the steady-state
// session hot path, where Send+Recv must not allocate per message.
const sessionPingSpec = `
protocol ping;
root seq m end {
    uint a 2;
    uint b 4;
    bytes payload fixed 8;
}
`

// BenchmarkSession measures the obfuscated session transport
// (internal/session).
//
//	steady    — one message Send plus one payload Recv on a warm session;
//	            the pooled-buffer scheme keeps this at 0 allocs/op
//	            (acceptance bound: <= 2).
//	roundtrip — full message Send plus dialect-decoding message Recv
//	            (includes the parser's tree construction).
func BenchmarkSession(b *testing.B) {
	b.Run("steady", func(b *testing.B) {
		proto, err := core.Compile(sessionPingSpec, core.ObfuscationOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rw := &bytes.Buffer{}
		c, err := session.NewConn(rw, session.Fixed(proto.Graph), session.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m, err := c.NewMessage()
		if err != nil {
			b.Fatal(err)
		}
		s := m.Scope()
		if err := s.SetUint("a", 7); err != nil {
			b.Fatal(err)
		}
		if err := s.SetUint("b", 1234); err != nil {
			b.Fatal(err)
		}
		if err := s.SetBytes("payload", []byte("01234567")); err != nil {
			b.Fatal(err)
		}
		tr := c.Transport()
		buf := make([]byte, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Send(m); err != nil {
				b.Fatal(err)
			}
			out, _, err := tr.RecvPayload(buf[:0])
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})

	b.Run("roundtrip", func(b *testing.B) {
		for _, perNode := range []int{0, 2} {
			b.Run(fmt.Sprintf("perNode=%d", perNode), func(b *testing.B) {
				a, peer, m := pingPair(b, perNode)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := a.Send(m); err != nil {
						b.Fatal(err)
					}
					if _, err := peer.Recv(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// pingPair returns a session, its peer on another endpoint of the same
// family, and a composed ping message for the session to send.
func pingPair(tb testing.TB, perNode int) (a, peer *protoobf.Session, m *protoobf.Message) {
	tb.Helper()
	opts := protoobf.Options{PerNode: perNode, Seed: 11}
	epA, err := protoobf.NewEndpoint(sessionPingSpec, opts)
	if err != nil {
		tb.Fatal(err)
	}
	epB, err := protoobf.NewEndpoint(sessionPingSpec, opts)
	if err != nil {
		tb.Fatal(err)
	}
	ca, cb := protoobf.Pipe()
	if a, err = epA.Session(ca); err != nil {
		tb.Fatal(err)
	}
	if peer, err = epB.Session(cb); err != nil {
		tb.Fatal(err)
	}
	if m, err = a.NewMessage(); err != nil {
		tb.Fatal(err)
	}
	s := m.Scope()
	if err := s.SetUint("a", 7); err != nil {
		tb.Fatal(err)
	}
	if err := s.SetUint("b", 1234); err != nil {
		tb.Fatal(err)
	}
	if err := s.SetBytes("payload", []byte("01234567")); err != nil {
		tb.Fatal(err)
	}
	return a, peer, m
}

// TestRoundTripAllocBytes bounds the heap bytes of one warm message
// round trip (Send plus a dialect-decoding Recv) at perNode 2, the
// shape of BenchmarkSession/roundtrip/perNode=2. A per-message seeding
// table (about 5 KiB each) cannot come back unnoticed.
func TestRoundTripAllocBytes(t *testing.T) {
	const (
		trips = 500
		limit = 990 // 792 B measured, plus 25%
	)
	a, peer, m := pingPair(t, 2)
	trip := func() {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		trip() // warm the pools and the dialect caches
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		trip()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / trips; per > limit {
		t.Errorf("round trip allocates %d B, want <= %d", per, limit)
	}
}

// TestNewMessageBuildsNoTree bounds the heap bytes of a warm
// Session.NewMessage that is never filled: the message and its rng
// (88 B), with no skeleton tree of the dialect (about 0.7 KiB at
// perNode 2).
func TestNewMessageBuildsNoTree(t *testing.T) {
	const (
		msgs  = 500
		limit = 128
	)
	a, _, _ := pingPair(t, 2)
	var keep *protoobf.Message
	newMessage := func() {
		m, err := a.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		keep = m
	}
	for i := 0; i < 10; i++ {
		newMessage() // warm the dialect cache
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < msgs; i++ {
		newMessage()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / msgs; per > limit {
		t.Errorf("NewMessage allocates %d B, want <= %d", per, limit)
	}
	runtime.KeepAlive(keep)
}

// BenchmarkEndpointSharedSessions measures the many-sessions-one-family
// shape the Endpoint API exists for: 64 live sessions minted from one
// Endpoint, with the measured operation being the shared
// compiled-version fetch — the lookup every session performs at each
// epoch boundary and dialect-cache miss, and the one point where
// concurrent sessions of a family used to serialize. The single-mutex
// variant pins the old geometry (one lock shard); the sharded variant
// is the default. The workload precompiles an epoch ring so the
// measurement isolates cache throughput from compile cost.
//
// The gap scales with hardware parallelism: with many cores the single
// mutex flatlines at one lock's hand-off rate while the sharded cache
// scales out, which is where the >= 2x shows. GOMAXPROCS is raised to
// at least 8 for the duration so the contention being measured exists
// even on small CI machines (a single-core runner can only show the
// scheduler-level part of the gap).
func BenchmarkEndpointSharedSessions(b *testing.B) {
	const (
		nSessions = 64
		epochRing = 16
	)
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	for _, v := range []struct {
		name   string
		shards int
	}{
		{"single-mutex", 1},
		{"sharded", 0},
	} {
		b.Run(v.name, func(b *testing.B) {
			// Capacity leaves headroom over the ring so per-shard skew
			// cannot evict live epochs and turn fetches into compiles.
			ep, err := protoobf.NewEndpoint(sessionPingSpec,
				protoobf.Options{PerNode: 1, Seed: 9},
				protoobf.WithVersionCache(epochRing*16, v.shards))
			if err != nil {
				b.Fatal(err)
			}
			// 64 concurrent sessions on the one endpoint, each proven
			// live with a round trip.
			sessions := make([]*protoobf.Session, 0, nSessions)
			for i := 0; i < nSessions; i++ {
				ca, cb := protoobf.Pipe()
				sa, err := ep.Session(ca)
				if err != nil {
					b.Fatal(err)
				}
				sb, err := ep.Session(cb)
				if err != nil {
					b.Fatal(err)
				}
				m, err := sa.NewMessage()
				if err != nil {
					b.Fatal(err)
				}
				s := m.Scope()
				if err := s.SetUint("a", 1); err != nil {
					b.Fatal(err)
				}
				if err := s.SetUint("b", 2); err != nil {
					b.Fatal(err)
				}
				if err := s.SetBytes("payload", []byte("01234567")); err != nil {
					b.Fatal(err)
				}
				if err := sa.Send(m); err != nil {
					b.Fatal(err)
				}
				if _, err := sb.Recv(); err != nil {
					b.Fatal(err)
				}
				sessions = append(sessions, sa, sb)
			}
			defer func() {
				for _, s := range sessions {
					s.Release()
				}
			}()
			for e := uint64(0); e < epochRing; e++ {
				if _, err := ep.Version(e); err != nil {
					b.Fatal(err)
				}
			}
			b.SetParallelism(nSessions) // goroutines >= sessions
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				e := uint64(0)
				for pb.Next() {
					if _, err := ep.Version(e & (epochRing - 1)); err != nil {
						b.Error(err) // FailNow must not run on a worker goroutine
						return
					}
					e++
				}
			})
		})
	}
}

// BenchmarkGenerate measures code generation (the other half of the
// generation time).
func BenchmarkGenerate(b *testing.B) {
	g, err := modbus.RequestGraph()
	if err != nil {
		b.Fatal(err)
	}
	res, err := transform.Obfuscate(g, transform.Options{PerNode: 2}, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(res.Graph, codegen.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
