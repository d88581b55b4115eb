package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"protoobf"
	"protoobf/internal/msgtree"
	"protoobf/internal/session"
)

// sessionSpec is the message format of the gateway workload: small
// telemetry-style messages, the shape the session hot path is
// optimized for.
const sessionSpec = `
protocol telemetry;
root seq msg end {
    uint  device 2;
    uint  seqno 4;
    uint  blen 2;
    seq body length(blen) {
        bytes status delim ";" min 1;
    }
    bytes sig end;
}
`

// GatewayConfig parameterizes the multi-process gateway workload: N
// concurrent client sessions dial through a routing gateway into a
// fleet of backend processes, rekey private families, and migrate
// between backends via single-use resumption tickets. The workload
// runs twice over one shared artifact cache — a cold phase that pays
// every dialect compile and populates the cache, then a warm phase
// with freshly started backends that must load everything from disk —
// so the report shows what the artifact cache buys a restarting fleet.
type GatewayConfig struct {
	// Sessions is the number of concurrent client sessions per phase
	// (default 1024).
	Sessions int
	// Cycles is the number of migrate cycles per session (default 2).
	Cycles int
	// MsgsPerCycle is the number of round trips before each migration
	// (default 4).
	MsgsPerCycle int
	// Backends is the number of backend processes (default 2).
	Backends int
	// PerNode is the obfuscation level (default 2).
	PerNode int
	// Seed is the fleet master seed.
	Seed int64
	// InProc runs the backends as goroutines instead of child
	// processes — for tests and environments that cannot fork.
	InProc bool
	// ArtifactDir is the shared artifact cache directory (default: a
	// temp dir removed after the run).
	ArtifactDir string
	// Metrics includes per-backend metric dumps in the rendered table.
	Metrics bool
	// ObsAddr, when set, is a bench obs address (StartObs) the workload
	// self-scrapes mid-run: while each phase's fleet is still up,
	// /metrics and /snapshot.json must answer 200, the metrics page must
	// pass the exposition lint, and the snapshot must decode — otherwise
	// the run fails.
	ObsAddr string
}

// BackendMetrics is the metric slice one backend reports at shutdown —
// the numbers the gateway workload aggregates across the fleet.
type BackendMetrics struct {
	Compiles       uint64 `json:"compiles"`
	DemandCompiles uint64 `json:"demand_compiles"`
	ArtifactLoads  uint64 `json:"artifact_loads"`
	ArtifactSaves  uint64 `json:"artifact_saves"`
	ResumeAccepts  uint64 `json:"resume_accepts"`
	ReplayRejects  uint64 `json:"replay_rejects"`
	TicketsIssued  uint64 `json:"tickets_issued"`
}

// GatewayReport is the BENCH_*.json section of one gateway workload
// run.
type GatewayReport struct {
	Sessions     int  `json:"sessions"`
	Backends     int  `json:"backends"`
	Cycles       int  `json:"cycles"`
	CrossProcess bool `json:"cross_process"`
	// Resumes counts completed through-the-gateway migrations across
	// both phases; CrossMoves the subset that landed on a different
	// backend than the previous cycle.
	Resumes    uint64 `json:"resumes"`
	CrossMoves uint64 `json:"cross_moves"`
	// MsgsPerSec is round-trip throughput over both phases.
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// MigrateAvgMs is the average reconnect-to-first-answer time of a
	// through-the-gateway migration, in milliseconds.
	MigrateAvgMs float64 `json:"migrate_avg_ms"`
	// ColdDemandCompiles is what the fleet's backends paid compiling
	// dialects in the cold phase; WarmDemandCompiles the same for the
	// warm phase, whose target is 0 — every version answered by the
	// artifact cache (WarmArtifactLoads counts those answers).
	ColdDemandCompiles uint64 `json:"cold_demand_compiles"`
	WarmDemandCompiles uint64 `json:"warm_demand_compiles"`
	WarmArtifactLoads  uint64 `json:"warm_artifact_loads"`
	// ReplayProbes counts deliberate re-presentations of spent tickets;
	// ReplayRejected how many the gateway refused (they must match).
	ReplayProbes   uint64 `json:"replay_probes"`
	ReplayRejected uint64 `json:"replay_rejected"`
	// BackendResumeAccepts is the per-backend resume count of the warm
	// phase — evidence the migrations actually spread over the fleet.
	BackendResumeAccepts []uint64 `json:"backend_resume_accepts"`
}

// GatewayResult is the measured outcome of one gateway workload run.
type GatewayResult struct {
	Config  GatewayConfig
	Report  GatewayReport
	Elapsed time.Duration
	// Cold and Warm are the per-backend metric slices of each phase;
	// GwStats the warm phase's gateway counters.
	Cold, Warm []BackendMetrics
	GwStats    protoobf.GatewayStats
}

// gatewayBackendConfig configures one backend of the workload; it is
// what the parent serializes to a child process.
type gatewayBackendConfig struct {
	Listen      string `json:"listen"`
	Tag         uint64 `json:"tag"`
	ArtifactDir string `json:"artifact_dir"`
	Seed        int64  `json:"seed"`
	PerNode     int    `json:"per_node"`
}

// familySeed is the per-(session, cycle) rekey seed. It is a pure
// function of the campaign seed so the cold and warm phases rekey to
// identical families — which is what lets the warm fleet answer every
// compile from the artifact cache.
func familySeed(seed int64, i, cycle int) int64 {
	return seed + int64(i)*1000 + int64(cycle) + 7
}

// RunGateway drives the two-phase gateway workload.
func RunGateway(ctx context.Context, cfg GatewayConfig) (*GatewayResult, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1024
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 2
	}
	if cfg.MsgsPerCycle <= 0 {
		cfg.MsgsPerCycle = 4
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 2
	}
	if cfg.PerNode <= 0 {
		cfg.PerNode = 2
	}
	dir := cfg.ArtifactDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "protoobf-artifacts-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	start := time.Now()
	cold, err := runGatewayPhase(ctx, cfg, dir, false)
	if err != nil {
		return nil, fmt.Errorf("bench: gateway cold phase: %w", err)
	}
	warm, err := runGatewayPhase(ctx, cfg, dir, true)
	if err != nil {
		return nil, fmt.Errorf("bench: gateway warm phase: %w", err)
	}
	elapsed := time.Since(start)

	res := &GatewayResult{
		Config:  cfg,
		Elapsed: elapsed,
		Cold:    cold.backends,
		Warm:    warm.backends,
		GwStats: warm.gw,
	}
	rep := &res.Report
	rep.Sessions = cfg.Sessions
	rep.Backends = cfg.Backends
	rep.Cycles = cfg.Cycles
	rep.CrossProcess = !cfg.InProc
	rep.Resumes = cold.resumes + warm.resumes
	rep.CrossMoves = cold.crossMoves + warm.crossMoves
	if s := elapsed.Seconds(); s > 0 {
		rep.MsgsPerSec = float64(cold.msgs+warm.msgs) / s
	}
	if rep.Resumes > 0 {
		rep.MigrateAvgMs = (cold.migrateTotal + warm.migrateTotal).Seconds() * 1e3 / float64(rep.Resumes)
	}
	for _, b := range cold.backends {
		rep.ColdDemandCompiles += b.DemandCompiles
	}
	for _, b := range warm.backends {
		rep.WarmDemandCompiles += b.DemandCompiles
		rep.WarmArtifactLoads += b.ArtifactLoads
		rep.BackendResumeAccepts = append(rep.BackendResumeAccepts, b.ResumeAccepts)
	}
	rep.ReplayProbes = cold.replayProbes + warm.replayProbes
	rep.ReplayRejected = cold.replayRejected + warm.replayRejected
	return res, nil
}

// gatewayPhase is what one phase of the workload measures.
type gatewayPhase struct {
	msgs, resumes, crossMoves    uint64
	migrateTotal                 time.Duration
	backends                     []BackendMetrics
	gw                           protoobf.GatewayStats
	replayProbes, replayRejected uint64
}

// runGatewayPhase starts a fresh fleet over the shared artifact dir,
// drives the migrate workload through a fresh gateway, optionally
// probes ticket replay, and tears everything down.
func runGatewayPhase(ctx context.Context, cfg GatewayConfig, dir string, probeReplay bool) (*gatewayPhase, error) {
	// The fleet: freshly started backends over the shared artifact dir.
	backends := make([]*gatewayBackend, 0, cfg.Backends)
	stopAll := func() []BackendMetrics {
		out := make([]BackendMetrics, 0, len(backends))
		for _, b := range backends {
			m, err := b.stop()
			if err == nil {
				out = append(out, m)
			}
		}
		return out
	}
	reg := protoobf.NewRegistry(0)
	for i := 0; i < cfg.Backends; i++ {
		bcfg := gatewayBackendConfig{
			Listen:      "127.0.0.1:0",
			Tag:         uint64(i + 1),
			ArtifactDir: dir,
			Seed:        cfg.Seed,
			PerNode:     cfg.PerNode,
		}
		var b *gatewayBackend
		var err error
		if cfg.InProc {
			b, err = startInprocBackend(bcfg)
		} else {
			b, err = startProcBackend(ctx, bcfg)
		}
		if err != nil {
			stopAll()
			return nil, err
		}
		backends = append(backends, b)
		if err := reg.Add(protoobf.Backend{Name: fmt.Sprintf("b%d", i+1), Addr: b.addr}); err != nil {
			stopAll()
			return nil, err
		}
	}
	defer func() { stopAll() }()

	// The gateway: fleet seed verification plus single-use tickets.
	gw, err := protoobf.NewGateway(protoobf.GatewayConfig{
		Registry: reg,
		Opener:   protoobf.SeedOpener(cfg.Seed),
		Replay:   protoobf.NewReplayCache(cfg.Sessions * (cfg.Cycles + 1)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go gw.Serve(ln)
	defer gw.Close()
	gwAddr := ln.Addr().String()

	// One shared client endpoint mints every worker's sessions; it
	// shares the artifact dir, so the warm phase loads on both sides.
	epCli, err := protoobf.NewEndpoint(sessionSpec,
		protoobf.Options{PerNode: cfg.PerNode, Seed: cfg.Seed},
		protoobf.WithArtifactCache(dir))
	if err != nil {
		return nil, err
	}
	defer publishObs("gateway-cli", epCli)()

	ph := &gatewayPhase{}
	var mu sync.Mutex
	spent := make([][]byte, cfg.Sessions) // one used ticket per worker
	errs := make([]error, cfg.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				sess, err := epCli.Dial(ctx, "tcp", gwAddr)
				if err != nil {
					return fmt.Errorf("dial: %w", err)
				}
				defer func() { sess.Close() }()
				seq := uint64(i) * 1_000_000
				var msgs, resumes, crossMoves uint64
				var migrate time.Duration
				lastTag := uint64(0)
				for c := 0; c < cfg.Cycles; c++ {
					if err := ctx.Err(); err != nil {
						return err
					}
					if _, err := sess.Rekey(familySeed(cfg.Seed, i, c)); err != nil {
						return fmt.Errorf("cycle %d rekey: %w", c, err)
					}
					for m := 0; m < cfg.MsgsPerCycle; m++ {
						tag, err := gatewayTrip(sess, seq)
						if err != nil {
							return fmt.Errorf("cycle %d trip %d: %w", c, m, err)
						}
						lastTag = tag
						seq++
						msgs++
					}
					// Prefer the ticket the backend re-issued after the
					// rekey; fall back to a local export.
					ticket := sess.StoredTicket()
					if ticket == nil {
						if ticket, err = sess.Export(); err != nil {
							return fmt.Errorf("cycle %d export: %w", c, err)
						}
					}
					sess.Close() // the kill

					t0 := time.Now()
					next, err := epCli.DialResume(ctx, "tcp", gwAddr, ticket)
					if err != nil {
						return fmt.Errorf("cycle %d resume: %w", c, err)
					}
					tag, err := gatewayTrip(next, seq)
					if err != nil {
						next.Close()
						return fmt.Errorf("cycle %d post-migration trip: %w", c, err)
					}
					migrate += time.Since(t0)
					seq++
					msgs++
					resumes++
					if tag != lastTag {
						crossMoves++
					}
					lastTag = tag
					if spent[i] == nil {
						spent[i] = ticket // already presented: replay fodder
					}
					sess = next
				}
				mu.Lock()
				ph.msgs += msgs
				ph.resumes += resumes
				ph.crossMoves += crossMoves
				ph.migrateTotal += migrate
				mu.Unlock()
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
	}

	// Mid-run scrape: the fleet and the client endpoint are still up,
	// so the obs page must be serviceable right now.
	if cfg.ObsAddr != "" {
		if err := selfScrape(cfg.ObsAddr); err != nil {
			return nil, err
		}
	}

	if probeReplay {
		// Re-present spent tickets: the gateway must refuse every one
		// before any backend sees it.
		before := gw.Stats().ReplayRejects
		probes := cfg.Sessions
		if probes > 32 {
			probes = 32
		}
		for i := 0; i < probes; i++ {
			if spent[i] == nil {
				continue
			}
			ph.replayProbes++
			if replayed, err := epCli.DialResume(ctx, "tcp", gwAddr, spent[i]); err == nil {
				if _, terr := gatewayTrip(replayed, 1); terr == nil {
					return nil, errors.New("replayed ticket served traffic through the gateway")
				}
				replayed.Close()
			}
		}
		ph.replayRejected = gw.Stats().ReplayRejects - before
	}

	ph.gw = gw.Stats()
	gw.Close()
	ph.backends = stopAll()
	backends = backends[:0] // the deferred stopAll must not re-stop
	if len(ph.backends) != cfg.Backends {
		return nil, fmt.Errorf("only %d of %d backends reported metrics", len(ph.backends), cfg.Backends)
	}
	return ph, nil
}

// buildTelemetry composes one telemetry message under c's current
// dialect.
func buildTelemetry(c *session.Conn, device, seqno uint64, status string) (*msgtree.Message, error) {
	m, err := c.NewMessage()
	if err != nil {
		return nil, err
	}
	s := m.Scope()
	if err := s.SetUint("device", device); err != nil {
		return nil, err
	}
	if err := s.SetUint("seqno", seqno); err != nil {
		return nil, err
	}
	if err := s.SetString("status", status); err != nil {
		return nil, err
	}
	if err := s.SetBytes("sig", nil); err != nil {
		return nil, err
	}
	return m, nil
}

// gatewayTrip is one round trip through the gateway: send a request,
// read the echoed ack, return the tag of the backend that served it.
func gatewayTrip(c *session.Conn, seqno uint64) (uint64, error) {
	m, err := buildTelemetry(c, 42, seqno, "ok")
	if err != nil {
		return 0, err
	}
	if err := c.Send(m); err != nil {
		return 0, err
	}
	got, err := c.Recv()
	if err != nil {
		return 0, err
	}
	v, err := got.Scope().GetUint("seqno")
	if err != nil {
		return 0, err
	}
	if v != seqno {
		return 0, fmt.Errorf("acked seqno %d, want %d", v, seqno)
	}
	return got.Scope().GetUint("device")
}

// serveEchoTagged answers each seqno with an ack carrying the
// backend's tag in the device field, so clients can tell which backend
// served each trip.
func serveEchoTagged(s *session.Conn, tag uint64) {
	for {
		got, err := s.Recv()
		if err != nil {
			return
		}
		seqno, err := got.Scope().GetUint("seqno")
		if err != nil {
			return
		}
		ack, err := buildTelemetry(s, tag, seqno, "ack")
		if err != nil {
			return
		}
		if err := s.Send(ack); err != nil {
			return
		}
	}
}

// runGatewayBackend serves one backend of the workload: an artifact-
// cache-backed endpoint with ticket re-issue, echoing until stop
// closes, then reporting its metrics.
func runGatewayBackend(cfg gatewayBackendConfig, ready func(addr string), stop <-chan struct{}) (BackendMetrics, error) {
	ep, err := protoobf.NewEndpoint(sessionSpec,
		protoobf.Options{PerNode: cfg.PerNode, Seed: cfg.Seed},
		protoobf.WithArtifactCache(cfg.ArtifactDir),
		protoobf.WithTicketReissue(true))
	if err != nil {
		return BackendMetrics{}, err
	}
	defer publishObs(fmt.Sprintf("gateway-b%d", cfg.Tag), ep)()
	ln, err := ep.Listen("tcp", cfg.Listen)
	if err != nil {
		return BackendMetrics{}, err
	}
	ready(ln.Addr().String())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			s, err := ln.Accept()
			if err != nil {
				if errors.Is(err, protoobf.ErrSessionSetup) {
					continue // one bad stream must not kill the backend
				}
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer s.Close()
				serveEchoTagged(s, cfg.Tag)
			}()
		}
	}()
	<-stop
	ln.Close()
	wg.Wait()
	m := ep.Metrics()
	return BackendMetrics{
		Compiles:       m.Rotation.Compiles,
		DemandCompiles: m.Rotation.DemandCompiles(),
		ArtifactLoads:  m.Rotation.ArtifactLoads,
		ArtifactSaves:  m.Rotation.ArtifactSaves,
		ResumeAccepts:  m.Resume.Accepts,
		ReplayRejects:  m.Resume.RejectedReplayed,
		TicketsIssued:  m.Resume.TicketsIssued,
	}, nil
}

// RunGatewayBackendStdio is the child-process entry of the
// cross-process workload (the hidden -gateway-backend flag of
// protoobf-bench): decode the config, serve until stdin closes, then
// print the metrics line the parent collects.
func RunGatewayBackendStdio(cfgJSON string, stdin io.Reader, stdout io.Writer) error {
	var cfg gatewayBackendConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return fmt.Errorf("bench: backend config: %w", err)
	}
	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, stdin)
		close(stop)
	}()
	m, err := runGatewayBackend(cfg, func(addr string) {
		fmt.Fprintf(stdout, "ADDR %s\n", addr)
	}, stop)
	if err != nil {
		return err
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "METRICS %s\n", data)
	return nil
}

// gatewayBackend is the parent's handle on one running backend.
type gatewayBackend struct {
	addr string
	stop func() (BackendMetrics, error)
}

// startInprocBackend runs a backend as a goroutine.
func startInprocBackend(cfg gatewayBackendConfig) (*gatewayBackend, error) {
	stop := make(chan struct{})
	addrCh := make(chan string, 1)
	type outcome struct {
		m   BackendMetrics
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		m, err := runGatewayBackend(cfg, func(a string) { addrCh <- a }, stop)
		resCh <- outcome{m, err}
	}()
	select {
	case addr := <-addrCh:
		var once sync.Once
		return &gatewayBackend{
			addr: addr,
			stop: func() (BackendMetrics, error) {
				once.Do(func() { close(stop) })
				r := <-resCh
				return r.m, r.err
			},
		}, nil
	case r := <-resCh:
		return nil, r.err
	}
}

// startProcBackend runs a backend as a child process — the same
// protoobf-bench binary re-invoked with the hidden -gateway-backend
// flag — and speaks the ADDR/METRICS stdout protocol with it.
func startProcBackend(ctx context.Context, cfg gatewayBackendConfig) (*gatewayBackend, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-gateway-backend", string(cfgJSON))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	readLine := func(prefix string) (string, error) {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, prefix) {
				return strings.TrimSpace(strings.TrimPrefix(line, prefix)), nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("backend exited before printing %q", prefix)
	}
	addr, err := readLine("ADDR ")
	if err != nil {
		stdin.Close()
		cmd.Wait()
		return nil, fmt.Errorf("backend start: %w", err)
	}
	var once sync.Once
	return &gatewayBackend{
		addr: addr,
		stop: func() (BackendMetrics, error) {
			once.Do(func() { stdin.Close() })
			line, rerr := readLine("METRICS ")
			werr := cmd.Wait()
			if rerr != nil {
				return BackendMetrics{}, rerr
			}
			if werr != nil {
				return BackendMetrics{}, werr
			}
			var m BackendMetrics
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				return BackendMetrics{}, fmt.Errorf("backend metrics: %w", err)
			}
			return m, nil
		},
	}, nil
}

// Table renders the gateway workload result.
func (r *GatewayResult) Table() string {
	mode := "cross-process (one child per backend)"
	if r.Config.InProc {
		mode = "in-process (goroutine backends)"
	}
	rep := r.Report
	var sb strings.Builder
	fmt.Fprintf(&sb, "gateway workload: fleet migration through a routing front (perNode=%d, seed=%d)\n",
		r.Config.PerNode, r.Config.Seed)
	fmt.Fprintf(&sb, "  fleet                %d backends, %s\n", rep.Backends, mode)
	fmt.Fprintf(&sb, "  sessions             %d per phase, %d migrate cycles each\n", rep.Sessions, rep.Cycles)
	fmt.Fprintf(&sb, "  resumes              %d through the gateway (%d landed on a different backend)\n",
		rep.Resumes, rep.CrossMoves)
	fmt.Fprintf(&sb, "  throughput           %.0f msgs/s over %v (both phases)\n", rep.MsgsPerSec, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  migration latency    %.2f ms avg (reconnect to first answered trip)\n", rep.MigrateAvgMs)
	fmt.Fprintf(&sb, "  demand compiles      cold=%d warm=%d (warm fleet loaded %d dialects from the artifact cache)\n",
		rep.ColdDemandCompiles, rep.WarmDemandCompiles, rep.WarmArtifactLoads)
	fmt.Fprintf(&sb, "  ticket replay        %d probes, %d rejected at the gateway\n", rep.ReplayProbes, rep.ReplayRejected)
	fmt.Fprintf(&sb, "  warm resume spread   %v per backend\n", rep.BackendResumeAccepts)
	g := r.GwStats
	fmt.Fprintf(&sb, "  gateway (warm)       accepted=%d fresh=%d resumed=%d replay-rejects=%d forged=%d dial-errors=%d header-errors=%d\n",
		g.Accepted, g.FreshRouted, g.ResumeRouted, g.ReplayRejects, g.ForgedRejects, g.DialErrors, g.HeaderErrors)
	if r.Config.Metrics {
		for i, b := range r.Cold {
			fmt.Fprintf(&sb, "  cold backend %d       %+v\n", i+1, b)
		}
		for i, b := range r.Warm {
			fmt.Fprintf(&sb, "  warm backend %d       %+v\n", i+1, b)
		}
	}
	return sb.String()
}
