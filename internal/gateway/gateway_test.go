// The gateway tests live in an external package importing the public
// protoobf API: the root package imports internal/gateway for its
// aliases, so testing through the API both avoids the import cycle and
// exercises exactly what a fleet operator wires up.
package gateway_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"protoobf"
	"protoobf/internal/metrics"
)

const gwSpec = `
protocol beacon;
root seq msg end {
    uint  seqno 4;
    bytes note end;
}`

// startBackend runs one echo backend on 127.0.0.1: every accepted
// session answers each seqno with seqno+1000 and tags the note with the
// backend's name so clients can tell who served them.
func startBackend(t *testing.T, ep *protoobf.Endpoint, name string) *protoobf.Listener {
	t.Helper()
	ln, err := ep.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			sess, err := ln.Accept()
			if err != nil {
				if errors.Is(err, protoobf.ErrSessionSetup) {
					continue // one bad stream must not kill the backend
				}
				return
			}
			go func(sess *protoobf.Session) {
				defer sess.Close()
				for {
					got, err := sess.Recv()
					if err != nil {
						return
					}
					seq, err := got.Scope().GetUint("seqno")
					if err != nil {
						return
					}
					reply, err := sess.NewMessage()
					if err != nil {
						return
					}
					if reply.Scope().SetUint("seqno", seq+1000) != nil {
						return
					}
					if reply.Scope().SetString("note", name) != nil {
						return
					}
					if sess.Send(reply) != nil {
						return
					}
				}
			}(sess)
		}
	}()
	return ln
}

// trip bounces one seqno through the echo backend and returns the name
// the serving backend stamped on the reply.
func trip(sess *protoobf.Session, seqno uint64) (string, error) {
	m, err := sess.NewMessage()
	if err != nil {
		return "", err
	}
	if err := m.Scope().SetUint("seqno", seqno); err != nil {
		return "", err
	}
	if err := m.Scope().SetString("note", "n"); err != nil {
		return "", err
	}
	if err := sess.Send(m); err != nil {
		return "", err
	}
	got, err := sess.Recv()
	if err != nil {
		return "", err
	}
	v, err := got.Scope().GetUint("seqno")
	if err != nil {
		return "", err
	}
	if v != seqno+1000 {
		return "", fmt.Errorf("echoed seqno %d, want %d", v, seqno+1000)
	}
	note, err := got.Scope().GetBytes("note")
	return string(note), err
}

// startGateway serves a gateway over the given config on 127.0.0.1 and
// returns its address.
func startGateway(t *testing.T, cfg protoobf.GatewayConfig) (*protoobf.Gateway, string) {
	t.Helper()
	gw, err := protoobf.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	return gw, ln.Addr().String()
}

func TestRegistryRoundRobinAndOwners(t *testing.T) {
	r := protoobf.NewRegistry(4)
	if _, ok := r.Pick(); ok {
		t.Fatal("empty registry picked a backend")
	}
	if err := r.Add(protoobf.Backend{Name: "a", Addr: "1:1"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(protoobf.Backend{Name: "b", Addr: "1:2"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(protoobf.Backend{Name: "", Addr: "1:3"}); err == nil {
		t.Fatal("nameless backend accepted")
	}
	// Round-robin alternates.
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		b, ok := r.Pick()
		if !ok {
			t.Fatal("pick failed")
		}
		seen[b.Name]++
	}
	if seen["a"] != 2 || seen["b"] != 2 {
		t.Fatalf("round robin skewed: %v", seen)
	}
	// Claim then Owner.
	r.Claim(42, "b")
	if b, ok := r.Owner(42); !ok || b.Name != "b" {
		t.Fatalf("owner of 42 = %v,%v, want b", b, ok)
	}
	// Claiming for an unregistered backend is ignored.
	r.Claim(43, "ghost")
	if _, ok := r.Owner(43); ok {
		t.Fatal("ghost backend owns a family")
	}
	// Re-adding updates the address in place and keeps ownership.
	if err := r.Add(protoobf.Backend{Name: "b", Addr: "1:9"}); err != nil {
		t.Fatal(err)
	}
	if b, _ := r.Owner(42); b.Addr != "1:9" {
		t.Fatalf("owner addr after re-add = %s, want 1:9", b.Addr)
	}
	// Removing a backend orphans its families.
	r.Remove("b")
	if _, ok := r.Owner(42); ok {
		t.Fatal("removed backend still owns a family")
	}
	if b, ok := r.Pick(); !ok || b.Name != "a" {
		t.Fatalf("pick after remove = %v,%v, want a", b, ok)
	}
	// Owner capacity is bounded: old claims age out.
	for fam := int64(100); fam < 110; fam++ {
		r.Claim(fam, "a")
	}
	if _, ok := r.Owner(100); ok {
		t.Fatal("owner map unbounded: family 100 survived 10 claims at cap 4")
	}
}

func TestSeedOpenerRejectsForged(t *testing.T) {
	o := protoobf.SeedOpener(99)
	if _, err := o.OpenResume([]byte("definitely not a sealed ticket")); err == nil {
		t.Fatal("forged ticket opened")
	}
	if _, err := protoobf.InspectTicket(o, []byte("nope")); err == nil {
		t.Fatal("forged ticket inspected")
	}
}

// TestGatewayRoutesAndRejectsReplay is the end-to-end fleet story over
// real TCP: fresh dials round-robin across two backend processes,
// a rekeyed session migrates through the gateway onto a (possibly
// different) backend, and a second presentation of the spent ticket is
// dropped at the front door and counted.
func TestGatewayRoutesAndRejectsReplay(t *testing.T) {
	const seed = int64(31)
	opts := protoobf.Options{PerNode: 1, Seed: seed}
	mkEp := func() *protoobf.Endpoint {
		ep, err := protoobf.NewEndpoint(gwSpec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	ln1 := startBackend(t, mkEp(), "b1")
	ln2 := startBackend(t, mkEp(), "b2")

	reg := protoobf.NewRegistry(0)
	if err := reg.Add(protoobf.Backend{Name: "b1", Addr: ln1.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(protoobf.Backend{Name: "b2", Addr: ln2.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	gw, addr := startGateway(t, protoobf.GatewayConfig{
		Registry: reg,
		Opener:   protoobf.SeedOpener(seed),
		Replay:   protoobf.NewReplayCache(0),
	})

	client := mkEp()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Fresh dials spread across both backends.
	served := map[string]bool{}
	for i := 0; i < 4; i++ {
		sess, err := client.Dial(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		who, err := trip(sess, uint64(i))
		if err != nil {
			t.Fatalf("fresh trip %d: %v", i, err)
		}
		served[who] = true
		sess.Close()
	}
	if !served["b1"] || !served["b2"] {
		t.Fatalf("round robin served only %v", served)
	}

	// A session rekeys (so its ticket names a private family), exports,
	// dies, and migrates through the gateway.
	sess, err := client.Dial(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trip(sess, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Rekey(0xFA0); err != nil {
		t.Fatal(err)
	}
	if _, err := trip(sess, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := trip(sess, 12); err != nil {
		t.Fatal(err)
	}
	ticket, err := sess.Export()
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()

	resumed, err := client.DialResume(ctx, "tcp", addr, ticket)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trip(resumed, 20); err != nil {
		t.Fatalf("post-migration trip: %v", err)
	}
	resumed.Close()

	// Replaying the spent ticket is refused before any backend sees it.
	replayed, err := client.DialResume(ctx, "tcp", addr, ticket)
	if err == nil {
		_, terr := trip(replayed, 30)
		replayed.Close()
		if terr == nil {
			t.Fatal("replayed ticket served traffic")
		}
	}
	stats := gw.Stats()
	if stats.ResumeRouted != 1 {
		t.Fatalf("ResumeRouted = %d, want 1", stats.ResumeRouted)
	}
	if stats.ReplayRejects != 1 {
		t.Fatalf("ReplayRejects = %d, want 1", stats.ReplayRejects)
	}
	if stats.FreshRouted < 5 {
		t.Fatalf("FreshRouted = %d, want >= 5", stats.FreshRouted)
	}
	if stats.ForgedRejects != 0 {
		t.Fatalf("ForgedRejects = %d, want 0", stats.ForgedRejects)
	}
}

// fakeClock drives schedules deterministically under -race.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestGatewayChurn is the routing churn soak: sessions migrate through
// the gateway between two backends while the epoch schedule rotates
// dialects and every session rekeys each cycle. Both backends share one
// artifact cache, so a migrated family restores from disk wherever it
// lands. Every trip must decode — a session served a superseded family
// version would fail its round trip — and a deliberate double-use of a
// spent ticket must be rejected and counted.
func TestGatewayChurn(t *testing.T) {
	const (
		seed     = int64(37)
		sessions = 8
		cycles   = 3
	)
	genesis := time.Unix(1_700_000_000, 0)
	clock := &fakeClock{t: genesis}
	schedule := protoobf.NewSchedule(genesis, time.Minute).WithClock(clock.now)
	artDir := t.TempDir()
	opts := protoobf.Options{PerNode: 1, Seed: seed}
	mkEp := func() *protoobf.Endpoint {
		ep, err := protoobf.NewEndpoint(gwSpec, opts,
			protoobf.WithSchedule(schedule),
			protoobf.WithArtifactCache(artDir),
			protoobf.WithTicketReissue(true))
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	epB1, epB2 := mkEp(), mkEp()
	ln1 := startBackend(t, epB1, "b1")
	ln2 := startBackend(t, epB2, "b2")

	reg := protoobf.NewRegistry(0)
	if err := reg.Add(protoobf.Backend{Name: "b1", Addr: ln1.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(protoobf.Backend{Name: "b2", Addr: ln2.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	gw, addr := startGateway(t, protoobf.GatewayConfig{
		Registry: reg,
		Opener:   protoobf.SeedOpener(seed),
		Replay:   protoobf.NewReplayCache(0),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	spent := make(chan []byte, sessions)             // one used ticket per worker for the replay probe
	progress := make(chan struct{}, sessions*cycles) // one per finished cycle
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := protoobf.NewEndpoint(gwSpec, opts,
				protoobf.WithSchedule(schedule),
				protoobf.WithArtifactCache(artDir))
			if err != nil {
				errs <- err
				return
			}
			sess, err := client.Dial(ctx, "tcp", addr)
			if err != nil {
				errs <- fmt.Errorf("worker %d dial: %w", i, err)
				return
			}
			var kept []byte
			for c := 0; c < cycles; c++ {
				if _, err := sess.Rekey(seed + int64(i*1000+c+13)); err != nil {
					errs <- fmt.Errorf("worker %d cycle %d rekey: %w", i, c, err)
					return
				}
				for m := 0; m < 3; m++ {
					if _, err := trip(sess, uint64(i*100+c*10+m)); err != nil {
						errs <- fmt.Errorf("worker %d cycle %d trip %d: %w", i, c, m, err)
						return
					}
				}
				// Prefer the backend's re-issued ticket; fall back to a
				// local export (first cycle may not have drained one).
				ticket := sess.StoredTicket()
				if ticket == nil {
					if ticket, err = sess.Export(); err != nil {
						errs <- fmt.Errorf("worker %d cycle %d export: %w", i, c, err)
						return
					}
				}
				sess.Close()
				if kept == nil {
					kept = ticket
				}
				if sess, err = client.DialResume(ctx, "tcp", addr, ticket); err != nil {
					errs <- fmt.Errorf("worker %d cycle %d resume: %w", i, c, err)
					return
				}
				if _, err := trip(sess, uint64(i*100+c*10+9)); err != nil {
					errs <- fmt.Errorf("worker %d cycle %d post-migration trip: %w", i, c, err)
					return
				}
				progress <- struct{}{}
			}
			sess.Close()
			spent <- kept
		}(i)
	}

	// Rotate the dialect schedule while the churn runs: one step each
	// time another half of the workers' count of cycles has finished,
	// so all three land before the last cycle ends.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for e := 0; e < 3; e++ {
		for k := 0; k < sessions/2; k++ {
			select {
			case <-progress:
			case <-done:
			}
		}
		clock.advance(time.Minute)
	}
	<-done
	close(errs)
	close(spent)
	for err := range errs {
		t.Fatal(err)
	}

	// Every kept ticket was already presented once: replaying them all
	// through the gateway must be rejected at the front door.
	before := gw.Stats().ReplayRejects
	var probes uint64
	for ticket := range spent {
		if ticket == nil {
			continue
		}
		probes++
		client, err := protoobf.NewEndpoint(gwSpec, opts, protoobf.WithSchedule(schedule))
		if err != nil {
			t.Fatal(err)
		}
		if replayed, err := client.DialResume(ctx, "tcp", addr, ticket); err == nil {
			if _, terr := trip(replayed, 1); terr == nil {
				t.Fatal("replayed ticket served traffic")
			}
			replayed.Close()
		}
	}
	if got := gw.Stats().ReplayRejects - before; got != probes {
		t.Fatalf("replay probes rejected = %d, want %d", got, probes)
	}

	// The shared artifact cache did its job: at least one backend loaded
	// a dialect some other process compiled instead of recompiling.
	m1, m2 := epB1.Metrics(), epB2.Metrics()
	if m1.Rotation.ArtifactLoads+m2.Rotation.ArtifactLoads == 0 {
		t.Fatalf("no artifact loads across the fleet (b1 %+v, b2 %+v)", m1.Rotation, m2.Rotation)
	}
	if got := gw.Stats().ResumeRouted; got < sessions*cycles {
		t.Fatalf("ResumeRouted = %d, want >= %d", got, sessions*cycles)
	}
}

// TestWritePromLints renders the routing counters the way the gateway
// command's /metrics page does and lints the result.
func TestWritePromLints(t *testing.T) {
	s := protoobf.GatewayStats{
		Accepted: 12, FreshRouted: 7, ResumeRouted: 4,
		ReplayRejects: 1, ForgedRejects: 2, DialErrors: 3, HeaderErrors: 5,
	}
	var p metrics.Page
	p.Add(s)
	var sb strings.Builder
	if err := p.Render(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	if err := metrics.LintProm([]byte(page)); err != nil {
		t.Fatalf("gateway prom page fails lint: %v\n%s", err, page)
	}
	for _, want := range []string{
		"protoobf_gateway_accepted_total 12",
		"protoobf_gateway_resume_routed_total 4",
		"protoobf_gateway_replay_rejects_total 1",
		"# TYPE protoobf_gateway_header_errors_total counter",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("page missing %q:\n%s", want, page)
		}
	}
}
