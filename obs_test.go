package protoobf_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"protoobf"
	"protoobf/internal/session/sched"
)

// driveRekey completes one in-band rekey between a (the proposer) and b
// over an in-memory pipe: propose, let b process and ack, let a process
// the ack.
func driveRekey(t *testing.T, a, b *protoobf.Session, seed int64, seq uint64) {
	t.Helper()
	if _, err := a.Rekey(seed); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, a, b, seq)   // b reads the proposal, applies, acks
	roundTrip(t, b, a, seq+1) // a reads the ack, commits
}

// openTracedPair mints a fresh session pair of ep over a pipe.
func openTracedPair(t *testing.T, ep *protoobf.Endpoint) (a, b *protoobf.Session) {
	t.Helper()
	ca, cb := protoobf.Pipe()
	a, err := ep.Session(ca)
	if err != nil {
		t.Fatal(err)
	}
	b, err = ep.Session(cb)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// exerciseEndpoint runs one full control-plane story on ep — round
// trips, an in-band rekey, a ticket export, and a resume on a fresh
// pipe — so every latency histogram and trace kind the stream layer
// records has fired at least once.
func exerciseEndpoint(t *testing.T, ep *protoobf.Endpoint, seed int64) {
	t.Helper()
	a, b := openTracedPair(t, ep)
	roundTrip(t, a, b, 1)
	driveRekey(t, a, b, seed, 2)
	ticket, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	a.Release()
	b.Release()

	ca, cb := protoobf.Pipe()
	acceptor, err := ep.Session(cb)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ep.Resume(ca, ticket)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, resumed, acceptor, 10) // acceptor adopts the ticket, acks
	roundTrip(t, acceptor, resumed, 11) // resumer reads the ack
	resumed.Release()
	acceptor.Release()
}

func TestObsHandler(t *testing.T) {
	ep, err := protoobf.NewEndpoint(beaconSpec, protoobf.Options{PerNode: 1, Seed: 61},
		protoobf.WithTrace(256))
	if err != nil {
		t.Fatal(err)
	}
	exerciseEndpoint(t, ep, 0x0B5)

	srv := httptest.NewServer(protoobf.ObsHandler(ep))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, []byte(readAll(t, resp))
	}

	// /metrics: a valid Prometheus page with histogram families and the
	// build-info gauge.
	code, page := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if err := protoobf.LintProm(page); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, page)
	}
	for _, want := range []string{
		"# TYPE protoobf_rekey_rtt_seconds histogram",
		"# TYPE protoobf_resume_rtt_seconds histogram",
		`protoobf_rekey_rtt_seconds_bucket{le="+Inf"} 1`,
		"protoobf_resume_rtt_seconds_count 1",
		"protoobf_build_info{",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}

	// /snapshot.json: decodes back into a Metrics value that agrees with
	// the live counters.
	code, body := get("/snapshot.json")
	if code != http.StatusOK {
		t.Fatalf("/snapshot.json status = %d", code)
	}
	var snap protoobf.Metrics
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/snapshot.json does not decode: %v", err)
	}
	if snap.Latency.RekeyRTT.Count != 1 || snap.Latency.ResumeRTT.Count != 1 {
		t.Fatalf("snapshot latency counts = %d/%d, want 1/1",
			snap.Latency.RekeyRTT.Count, snap.Latency.ResumeRTT.Count)
	}
	if snap.Resume.Accepts != 1 {
		t.Fatalf("snapshot resume accepts = %d, want 1", snap.Resume.Accepts)
	}

	// /trace.json: the endpoint's event ring, kinds by name, seqs
	// strictly increasing.
	code, body = get("/trace.json")
	if code != http.StatusOK {
		t.Fatalf("/trace.json status = %d", code)
	}
	var evs []protoobf.TraceEvent
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("/trace.json does not decode: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("/trace.json empty after a traced session lifecycle")
	}
	counts := map[protoobf.TraceKind]int{}
	for i, e := range evs {
		counts[e.Kind]++
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Fatalf("trace seq gap: %d then %d", evs[i-1].Seq, e.Seq)
		}
	}
	for _, k := range []protoobf.TraceKind{
		protoobf.TraceSessionOpen, protoobf.TraceRekeyPropose,
		protoobf.TraceRekeyAck, protoobf.TraceResumeAccept,
	} {
		if counts[k] == 0 {
			t.Fatalf("trace missing kind %v in %v", k, counts)
		}
	}

	// /debug/pprof: the index responds.
	code, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

func TestServeObs(t *testing.T) {
	ep, err := protoobf.NewEndpoint(beaconSpec, protoobf.Options{PerNode: 1, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := protoobf.ServeObs("127.0.0.1:0", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	resp, err := http.Get("http://" + obs.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := protoobf.LintProm([]byte(page)); err != nil {
		t.Fatalf("served page fails lint: %v", err)
	}
	// An untraced endpoint serves an empty-but-valid trace page.
	resp, err = http.Get("http://" + obs.Addr() + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("untraced /trace.json = %q, want []", body)
	}
}

func TestWithTraceEndpointLevelOnly(t *testing.T) {
	ep, err := protoobf.NewEndpoint(beaconSpec, protoobf.Options{PerNode: 1, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := protoobf.Pipe()
	if _, err := ep.Session(ca, protoobf.WithTrace(16)); err == nil {
		t.Fatal("WithTrace accepted in session position")
	}
}

// TestTraceSoak64 is the exactly-once semantics soak: 64 sequential
// session lifecycles, each with one rekey handshake and one resume,
// must appear in the trace exactly once each — no duplicated or
// dropped control-plane events, and the latency histograms must agree.
func TestTraceSoak64(t *testing.T) {
	const rounds = 64
	ep, err := protoobf.NewEndpoint(beaconSpec, protoobf.Options{PerNode: 1, Seed: 64},
		protoobf.WithTrace(4096))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		exerciseEndpoint(t, ep, 0x1000+int64(i))
	}
	evs := ep.Trace()
	counts := map[protoobf.TraceKind]int{}
	acks, peerAcks := 0, 0
	for i, e := range evs {
		counts[e.Kind]++
		if e.Kind == protoobf.TraceRekeyAck {
			if e.Detail == "peer" {
				peerAcks++
			} else {
				acks++
			}
		}
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Fatalf("trace seq gap: %d then %d", evs[i-1].Seq, e.Seq)
		}
	}
	if counts[protoobf.TraceRekeyPropose] != rounds {
		t.Fatalf("rekey proposals traced = %d, want %d", counts[protoobf.TraceRekeyPropose], rounds)
	}
	if acks != rounds || peerAcks != rounds {
		t.Fatalf("rekey acks traced = %d proposer + %d peer, want %d each", acks, peerAcks, rounds)
	}
	if counts[protoobf.TraceResumeAccept] != rounds {
		t.Fatalf("resume accepts traced = %d, want %d", counts[protoobf.TraceResumeAccept], rounds)
	}
	if counts[protoobf.TraceResumeReject] != 0 || counts[protoobf.TraceRekeyRollback] != 0 {
		t.Fatalf("unexpected rejects/rollbacks: %v", counts)
	}
	m := ep.Metrics()
	if m.Latency.RekeyRTT.Count != rounds {
		t.Fatalf("rekey RTT observations = %d, want %d", m.Latency.RekeyRTT.Count, rounds)
	}
	if m.Latency.ResumeRTT.Count != rounds {
		t.Fatalf("resume RTT observations = %d, want %d", m.Latency.ResumeRTT.Count, rounds)
	}
}

// TestEpochCoreParity drives one scripted lifecycle over a stream
// session pair and a packet session pair on a fake clock — open, scheduled
// epoch steps, a rekey, more steps, close — and checks that both
// transports report it identically: the same session-open, epoch-cross
// and session-close trace counts, one EpochBoundary observation per
// crossing, and the same rekey-propose count. The packet acceptor
// traces the boundary it applies as a rekey-ack like the stream
// acceptor, once for the whole redundant burst; the packet proposer has
// no ack to trace. Both transports run
// the lifecycle hooks of one shared epoch core.
func TestEpochCoreParity(t *testing.T) {
	type peer interface {
		messenger
		Rekey(seed int64) (uint64, error)
		Close() error
	}
	transports := []struct {
		name string
		open func(t *testing.T, ep *protoobf.Endpoint) (a, b peer)
	}{
		{"stream", func(t *testing.T, ep *protoobf.Endpoint) (peer, peer) {
			a, b := openTracedPair(t, ep)
			return a, b
		}},
		{"packet", func(t *testing.T, ep *protoobf.Endpoint) (peer, peer) {
			ca, cb := protoobf.PacketPipe()
			a, err := ep.PacketSession(ca)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ep.PacketSession(cb)
			if err != nil {
				t.Fatal(err)
			}
			return a, b
		}},
	}
	const before, after = 3, 2 // scheduled steps around the rekey
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	type report struct {
		events     map[string]int
		boundaries uint64
	}
	var reports []report
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			clock := sched.NewFakeClock(genesis)
			schedule := protoobf.NewSchedule(genesis, time.Minute).WithClock(clock.Now)
			ep, err := protoobf.NewEndpoint(beaconSpec, protoobf.Options{PerNode: 1, Seed: 67},
				protoobf.WithTrace(256), protoobf.WithSchedule(schedule))
			if err != nil {
				t.Fatal(err)
			}
			a, b := tr.open(t, ep)
			seq := uint64(0)
			both := func() {
				roundTrip(t, a, b, seq)
				roundTrip(t, b, a, seq+1)
				seq += 2
			}
			step := func(n int) {
				for i := 0; i < n; i++ {
					clock.Advance(time.Minute)
					both()
				}
			}
			both()
			step(before)
			if _, err := a.Rekey(0x7A11); err != nil {
				t.Fatal(err)
			}
			both() // the peer applies the rekey (and the proposer commits)
			// The rekey moved both peers to the next epoch already, so the
			// first step after it crosses nothing.
			step(after)
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			rep := report{events: map[string]int{}, boundaries: ep.Metrics().Latency.EpochBoundary.Count}
			for _, e := range ep.Trace() {
				rep.events[e.Kind.String()]++
			}
			crossings := 2 * (before + after - 1)
			for kind, want := range map[string]int{"session-open": 2, "epoch-cross": crossings, "session-close": 2} {
				if got := rep.events[kind]; got != want {
					t.Errorf("%s events = %d, want %d", kind, got, want)
				}
			}
			if rep.boundaries != uint64(crossings) {
				t.Errorf("EpochBoundary observations = %d, want %d (one per crossing)", rep.boundaries, crossings)
			}
			reports = append(reports, rep)
		})
	}
	if len(reports) != 2 {
		return
	}
	s, p := reports[0], reports[1]
	for _, kind := range []string{"session-open", "epoch-cross", "session-close", "rekey-propose"} {
		if s.events[kind] != p.events[kind] {
			t.Errorf("%s: stream %d, packet %d", kind, s.events[kind], p.events[kind])
		}
	}
	// One boundary applied once, however many redundant copies arrived.
	if p.events["rekey-ack"] != 1 {
		t.Errorf("packet rekey-ack events = %d, want 1", p.events["rekey-ack"])
	}
	if s.boundaries != p.boundaries {
		t.Errorf("EpochBoundary observations: stream %d, packet %d", s.boundaries, p.boundaries)
	}
}
