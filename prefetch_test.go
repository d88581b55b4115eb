// Internal tests of the prefetch daemon and the Metrics API. These live
// in package protoobf (not protoobf_test) to inject the daemon's
// boundary wait, which keeps every test deterministic: the fake clock
// owns epoch time and the test owns the daemon's wake-ups.
package protoobf

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"protoobf/internal/session/sched"
)

// prefetchSpec is a small telemetry-style message: big enough that a
// dialect compile costs real work, small enough that the tests stay
// fast.
const prefetchSpec = `
protocol pftest;
root seq m end {
    uint device 2;
    uint seqno 4;
    bytes payload fixed 8;
}
`

// manualSleeper replaces the daemon's boundary wait: the daemon parks
// on it after every prefetch pass and the test releases it explicitly,
// so epoch time (the fake clock) and daemon wake-ups are both under
// test control.
type manualSleeper struct {
	parked chan struct{} // daemon signals: pass complete, waiting at the boundary
	kick   chan struct{} // test signals: boundary crossed, run the next pass
}

func newManualSleeper() *manualSleeper {
	return &manualSleeper{parked: make(chan struct{}), kick: make(chan struct{})}
}

func (s *manualSleeper) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case s.parked <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	select {
	case <-s.kick:
		return true
	case <-ctx.Done():
		return false
	}
}

// cycle crosses one epoch boundary: wake the daemon and wait for its
// pass to complete (it parks again when done).
func (s *manualSleeper) cycle() {
	s.kick <- struct{}{}
	<-s.parked
}

// prefetchRig is one endpoint with a scheduled fake clock and a parked
// prefetch daemon, primed through its first pass.
type prefetchRig struct {
	ep      *Endpoint
	clock   *sched.FakeClock
	sleeper *manualSleeper
	pf      *Prefetcher
	cancel  context.CancelFunc
}

const prefetchInterval = time.Minute

func newPrefetchRig(t *testing.T, depth int, extra ...Option) *prefetchRig {
	t.Helper()
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := sched.NewFakeClock(genesis)
	schedule := NewSchedule(genesis, prefetchInterval).WithClock(clock.Now)
	sleeper := newManualSleeper()
	opts := append([]Option{
		WithSchedule(schedule),
		WithPrefetch(depth),
		withPrefetchSleep(sleeper.sleep),
	}, extra...)
	ep, err := NewEndpoint(prefetchSpec, Options{PerNode: 2, Seed: 77}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pf, err := ep.StartPrefetch(ctx)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	<-sleeper.parked // priming pass done
	rig := &prefetchRig{ep: ep, clock: clock, sleeper: sleeper, pf: pf, cancel: cancel}
	t.Cleanup(func() {
		cancel()
		pf.Wait()
	})
	return rig
}

// sessionPair mints two connected sessions from one endpoint (both
// sides of one endpoint share the family, exactly like two processes
// built from the same spec and seed).
func sessionPair(t *testing.T, ep *Endpoint, o ...SessionOption) (*Session, *Session) {
	t.Helper()
	ca, cb := Pipe()
	a, err := ep.Session(ca, o...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ep.Session(cb, o...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Release()
		b.Release()
	})
	return a, b
}

// trip sends one message from -> to and checks the decoded seqno.
func trip(from, to *Session, seqno uint64) error {
	m, err := from.NewMessage()
	if err != nil {
		return err
	}
	s := m.Scope()
	if err := s.SetUint("device", 3); err != nil {
		return err
	}
	if err := s.SetUint("seqno", seqno); err != nil {
		return err
	}
	if err := s.SetBytes("payload", []byte("01234567")); err != nil {
		return err
	}
	if err := from.Send(m); err != nil {
		return err
	}
	got, err := to.Recv()
	if err != nil {
		return err
	}
	v, err := got.Scope().GetUint("seqno")
	if err != nil {
		return err
	}
	if v != seqno {
		return fmt.Errorf("decoded seqno %d, want %d", v, seqno)
	}
	return nil
}

func TestStartPrefetchValidation(t *testing.T) {
	// No schedule.
	ep, err := NewEndpoint(prefetchSpec, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.StartPrefetch(context.Background()); err == nil {
		t.Fatal("StartPrefetch without a schedule did not error")
	}

	// Static endpoint.
	p, err := Compile(prefetchSpec, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	st, err := NewEndpoint("", Options{}, WithStaticProtocol(p), WithSchedule(NewSchedule(genesis, time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.StartPrefetch(context.Background()); err == nil {
		t.Fatal("StartPrefetch on a static endpoint did not error")
	}

	// WithPrefetch is endpoint-level.
	rig := newPrefetchRig(t, 1)
	ca, _ := Pipe()
	if _, err := rig.ep.Session(ca, WithPrefetch(3)); err == nil {
		t.Fatal("per-session WithPrefetch did not error")
	}

	// Only one daemon per endpoint.
	if _, err := rig.ep.StartPrefetch(context.Background()); err == nil {
		t.Fatal("second StartPrefetch did not error")
	}

	// After the first daemon exits, a new one may start.
	rig.cancel()
	rig.pf.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pf2, err := rig.ep.StartPrefetch(ctx)
	if err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
	<-rig.sleeper.parked
	cancel()
	pf2.Wait()
}

// TestPrefetchEliminatesBoundaryCompiles is the acceptance property of
// the daemon: with prefetch running, crossing an epoch boundary costs
// the sessions zero demand compiles — every dialect they need was
// compiled ahead by the daemon — while without the daemon each
// boundary compiles on the session hot path.
func TestPrefetchEliminatesBoundaryCompiles(t *testing.T) {
	const epochs = 8

	t.Run("prefetch-on", func(t *testing.T) {
		rig := newPrefetchRig(t, 2)
		a, b := sessionPair(t, rig.ep)
		base := rig.ep.Metrics()
		for e := 1; e <= epochs; e++ {
			rig.clock.Advance(prefetchInterval)
			if err := trip(a, b, uint64(e)); err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
			if err := trip(b, a, uint64(e)); err != nil {
				t.Fatalf("epoch %d (reverse): %v", e, err)
			}
			if got, want := a.Epoch(), uint64(e); got != want {
				t.Fatalf("session epoch = %d, want %d", got, want)
			}
			rig.sleeper.cycle()
		}
		m := rig.ep.Metrics()
		if demand := m.Rotation.DemandCompiles() - base.Rotation.DemandCompiles(); demand != 0 {
			t.Fatalf("sessions paid %d demand compiles across %d boundaries with prefetch on, want 0", demand, epochs)
		}
		if lead := m.Prefetch.Lead() - base.Prefetch.Lead(); lead < epochs {
			t.Fatalf("prefetch lead = %d across %d boundaries, want >= %d", lead, epochs, epochs)
		}
		if m.Prefetch.Late != 0 {
			t.Fatalf("prefetch reported %d late epochs under a test-controlled clock", m.Prefetch.Late)
		}
	})

	t.Run("prefetch-off", func(t *testing.T) {
		genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		clock := sched.NewFakeClock(genesis)
		schedule := NewSchedule(genesis, prefetchInterval).WithClock(clock.Now)
		ep, err := NewEndpoint(prefetchSpec, Options{PerNode: 2, Seed: 77}, WithSchedule(schedule))
		if err != nil {
			t.Fatal(err)
		}
		a, b := sessionPair(t, ep)
		base := ep.Metrics()
		for e := 1; e <= epochs; e++ {
			clock.Advance(prefetchInterval)
			if err := trip(a, b, uint64(e)); err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
		}
		m := ep.Metrics()
		if demand := m.Rotation.DemandCompiles() - base.Rotation.DemandCompiles(); demand != epochs {
			t.Fatalf("demand compiles without prefetch = %d, want %d (one per boundary)", demand, epochs)
		}
		// Every boundary's demand compile is timed into the runtime
		// histogram. (The base counts the constructor's untimed epoch-0
		// compile, so compare the deltas.)
		if timed := m.Rotation.DemandCompileNanos.Count - base.Rotation.DemandCompileNanos.Count; timed != epochs {
			t.Fatalf("DemandCompileNanos observed %d compiles across %d boundaries, want %d", timed, epochs, epochs)
		}
	})
}

// TestPrefetchDeepWindow: with depth n the daemon keeps n upcoming
// epochs warm, so even a session that skips ahead within the window
// (a peer up to n-1 intervals fast) finds its dialect compiled.
func TestPrefetchDeepWindow(t *testing.T) {
	rig := newPrefetchRig(t, 4)
	base := rig.ep.Metrics()
	// The priming pass compiled epochs 1..4 ahead of time; fetching any
	// of them through the session-facing path must not compile.
	for e := uint64(1); e <= 4; e++ {
		if _, err := rig.ep.Version(e); err != nil {
			t.Fatal(err)
		}
	}
	m := rig.ep.Metrics()
	if demand := m.Rotation.DemandCompiles() - base.Rotation.DemandCompiles(); demand != 0 {
		t.Fatalf("window fetches paid %d demand compiles, want 0", demand)
	}
	if m.Rotation.PrefetchCompiles < 4 {
		t.Fatalf("prefetch compiles = %d after priming a depth-4 window, want >= 4", m.Rotation.PrefetchCompiles)
	}
}

// TestPrefetchVsRekeyRace runs scheduled rotation, a live prefetch
// daemon, and in-band rekeys concurrently across several session
// pairs. The property under -race: a session that rekeyed to a fresh
// seed family keeps decoding correctly — the daemon's prefetched
// base-family versions are keyed under the old family and are never
// served across the rekey boundary (a stale dialect would break the
// differential check inside trip).
func TestPrefetchVsRekeyRace(t *testing.T) {
	const (
		pairs  = 4
		epochs = 10
	)
	rig := newPrefetchRig(t, 2)
	type pair struct{ a, b *Session }
	ps := make([]pair, pairs)
	for i := range ps {
		// Every pair rekeys every 3 epochs, independently.
		a, b := sessionPair(t, rig.ep, WithRekeyEvery(3))
		ps[i] = pair{a, b}
	}
	for e := 1; e <= epochs; e++ {
		rig.clock.Advance(prefetchInterval)
		var wg sync.WaitGroup
		errs := make([]error, pairs)
		for i := range ps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for m := 0; m < 4; m++ {
					if err := trip(ps[i].a, ps[i].b, uint64(e*100+m)); err != nil {
						errs[i] = fmt.Errorf("epoch %d msg %d: %w", e, m, err)
						return
					}
					if err := trip(ps[i].b, ps[i].a, uint64(e*100+m)); err != nil {
						errs[i] = fmt.Errorf("epoch %d msg %d reverse: %w", e, m, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("pair %d: %v", i, err)
			}
		}
		rig.sleeper.cycle()
	}
	m := rig.ep.Metrics()
	if m.Rotation.Rekeys == 0 {
		t.Fatal("no rekeys completed; the race the test exists for never happened")
	}
	if m.Rotation.PrefetchCompiles == 0 {
		t.Fatal("no prefetch compiles; the race the test exists for never happened")
	}
}

// TestMetricsSnapshotConsistency hammers one endpoint with 64
// concurrent sessions while snapshots are taken in parallel, then
// checks the invariants every snapshot must satisfy: counters are
// monotonic between snapshots, per-shard rows sum to the totals, a
// compile (or a dedup join) implies a recorded miss, and prefetch
// attribution never exceeds the compile count.
func TestMetricsSnapshotConsistency(t *testing.T) {
	const (
		nPairs  = 32 // 64 sessions
		nEpochs = 6
	)
	rig := newPrefetchRig(t, 2)
	type pair struct{ a, b *Session }
	ps := make([]pair, nPairs)
	for i := range ps {
		a, b := sessionPair(t, rig.ep)
		ps[i] = pair{a, b}
	}

	check := func(m Metrics) error {
		var h, mi, ev uint64
		for _, row := range m.Rotation.Cache.PerShard {
			h += row.Hits
			mi += row.Misses
			ev += row.Evictions
		}
		if h != m.Rotation.Cache.Hits || mi != m.Rotation.Cache.Misses || ev != m.Rotation.Cache.Evictions {
			return fmt.Errorf("per-shard rows (%d/%d/%d) != totals (%d/%d/%d)",
				h, mi, ev, m.Rotation.Cache.Hits, m.Rotation.Cache.Misses, m.Rotation.Cache.Evictions)
		}
		if m.Rotation.PrefetchCompiles > m.Rotation.Compiles {
			return fmt.Errorf("prefetch compiles %d exceed total compiles %d",
				m.Rotation.PrefetchCompiles, m.Rotation.Compiles)
		}
		// Every compile or dedup join was preceded by a cache miss (the
		// constructor's eager probe is the one compile without a miss).
		if m.Rotation.Compiles+m.Rotation.CompileDedup > m.Rotation.Cache.Misses+1 {
			return fmt.Errorf("compiles %d + dedup %d exceed misses %d + 1",
				m.Rotation.Compiles, m.Rotation.CompileDedup, m.Rotation.Cache.Misses)
		}
		return nil
	}
	monotonic := func(prev, cur Metrics) error {
		type pairU struct {
			name       string
			prev, curr uint64
		}
		for _, f := range []pairU{
			{"Compiles", prev.Rotation.Compiles, cur.Rotation.Compiles},
			{"PrefetchCompiles", prev.Rotation.PrefetchCompiles, cur.Rotation.PrefetchCompiles},
			{"CompileDedup", prev.Rotation.CompileDedup, cur.Rotation.CompileDedup},
			{"Hits", prev.Rotation.Cache.Hits, cur.Rotation.Cache.Hits},
			{"Misses", prev.Rotation.Cache.Misses, cur.Rotation.Cache.Misses},
			{"Evictions", prev.Rotation.Cache.Evictions, cur.Rotation.Cache.Evictions},
			{"Cycles", prev.Prefetch.Cycles, cur.Prefetch.Cycles},
			{"Lead", prev.Prefetch.Lead(), cur.Prefetch.Lead()},
		} {
			if f.curr < f.prev {
				return fmt.Errorf("%s went backwards: %d -> %d", f.name, f.prev, f.curr)
			}
		}
		return nil
	}

	stop := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		prev := rig.ep.Metrics()
		for {
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
			cur := rig.ep.Metrics()
			if err := check(cur); err != nil {
				snapErr <- err
				return
			}
			if err := monotonic(prev, cur); err != nil {
				snapErr <- err
				return
			}
			prev = cur
		}
	}()

	for e := 1; e <= nEpochs; e++ {
		rig.clock.Advance(prefetchInterval)
		var wg sync.WaitGroup
		errs := make([]error, nPairs)
		for i := range ps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for m := 0; m < 3; m++ {
					if err := trip(ps[i].a, ps[i].b, uint64(e*10+m)); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("pair %d epoch %d: %v", i, e, err)
			}
		}
		rig.sleeper.cycle()
	}
	close(stop)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	if err := check(rig.ep.Metrics()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEpochBoundary measures what crossing a scheduled epoch
// boundary costs a live session pair, with and without the prefetch
// daemon. Each iteration advances the fake clock one interval and does
// one round trip — so the prefetch-off case pays the new epoch's
// dialect compile on the session hot path, while the prefetch-on case
// finds it already compiled (the daemon runs between iterations, off
// the measured path, exactly as it would run between boundaries in
// production). The demand-compiles/op metric makes the claim auditable:
// 0 with prefetch on, ~1 with prefetch off.
func BenchmarkEpochBoundary(b *testing.B) {
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	run := func(b *testing.B, prefetch bool) {
		clock := sched.NewFakeClock(genesis)
		schedule := NewSchedule(genesis, prefetchInterval).WithClock(clock.Now)
		opts := []Option{WithSchedule(schedule)}
		var sleeper *manualSleeper
		if prefetch {
			sleeper = newManualSleeper()
			opts = append(opts, WithPrefetch(2), withPrefetchSleep(sleeper.sleep))
		}
		ep, err := NewEndpoint(prefetchSpec, Options{PerNode: 2, Seed: 77}, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if prefetch {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pf, err := ep.StartPrefetch(ctx)
			if err != nil {
				b.Fatal(err)
			}
			defer pf.Wait()
			defer cancel()
			<-sleeper.parked
		}
		ca, cb := Pipe()
		sa, err := ep.Session(ca)
		if err != nil {
			b.Fatal(err)
		}
		sb, err := ep.Session(cb)
		if err != nil {
			b.Fatal(err)
		}
		defer sa.Release()
		defer sb.Release()
		base := ep.Metrics()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock.Advance(prefetchInterval)
			if err := trip(sa, sb, uint64(i)); err != nil {
				b.Fatal(err)
			}
			if prefetch {
				b.StopTimer()
				sleeper.cycle() // daemon refills the window off the measured path
				b.StartTimer()
			}
		}
		b.StopTimer()
		m := ep.Metrics()
		demand := m.Rotation.DemandCompiles() - base.Rotation.DemandCompiles()
		b.ReportMetric(float64(demand)/float64(b.N), "demand-compiles/op")
		if prefetch && demand != 0 {
			b.Fatalf("prefetch-on run paid %d demand compiles across %d boundaries, want 0", demand, b.N)
		}
		if !prefetch && demand == 0 {
			b.Fatalf("prefetch-off run paid no demand compiles across %d boundaries; the benchmark is not measuring the stall", b.N)
		}
	}
	b.Run("prefetch-off", func(b *testing.B) { run(b, false) })
	b.Run("prefetch-on", func(b *testing.B) { run(b, true) })
}
