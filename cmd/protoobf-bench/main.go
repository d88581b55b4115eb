// Command protoobf-bench regenerates the paper's evaluation (§VII):
// tables III/IV, the time figures 4/5, the potency figures 6/7, the
// §VII-D resilience assessment, and the per-transformation ablation.
//
// Usage:
//
//	protoobf-bench -protocol modbus -table             # table IV
//	protoobf-bench -protocol http -table -runs 1000    # table III, paper-scale
//	protoobf-bench -protocol http -figure time         # figure 4 data + fits
//	protoobf-bench -protocol modbus -figure potency    # figure 7 data
//	protoobf-bench -resilience                         # §VII-D
//	protoobf-bench -ablation -protocol modbus          # per-transformation study
//	protoobf-bench -adversary -out bench-out           # standing adversary run, BENCH_<runid>.json
//	protoobf-bench -gateway -sessions 1024             # fleet migration through the routing gateway
//	protoobf-bench -gateway -inproc -sessions 64       # same with goroutine backends (no fork)
//	protoobf-bench -all                                # everything, default sizes
//
// Throughput, CPU and memory are timed by the perfbench module, not
// here.
//
// SIGINT/SIGTERM cancel a run cleanly: in-flight workloads stop between
// round trips, and TCP listeners and gateway backends close before the
// process does.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"protoobf/internal/bench"
)

func main() {
	// Track which signal cancelled the run so the exit status follows
	// the shell convention (128+signo: 130 for SIGINT, 143 for SIGTERM).
	var got atomic.Value
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		s, ok := <-sigCh
		if ok {
			got.Store(s)
			cancel()
		}
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			code := 130
			if s, _ := got.Load().(os.Signal); s == syscall.SIGTERM {
				code = 143
			}
			fmt.Fprintln(os.Stderr, "protoobf-bench: interrupted")
			os.Exit(code)
		}
		fmt.Fprintln(os.Stderr, "protoobf-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("protoobf-bench", flag.ContinueOnError)
	protocol := fs.String("protocol", "modbus", "protocol to evaluate (modbus or http)")
	runs := fs.Int("runs", 50, "experiments per obfuscation level (paper: 1000)")
	msgs := fs.Int("msgs", 20, "messages per experiment for timing measures")
	seed := fs.Int64("seed", 1, "campaign seed")
	table := fs.Bool("table", false, "print the paper-style table (III or IV)")
	figure := fs.String("figure", "", "print figure data: time (fig 4/5) or potency (fig 6/7)")
	resilience := fs.Bool("resilience", false, "run the §VII-D resilience assessment")
	calibrate := fs.Float64("calibrate", 0, "search the per-node level whose residual PRE score falls below this target (e.g. 0.2)")
	ablation := fs.Bool("ablation", false, "run the per-transformation ablation study")
	adversaryWL := fs.Bool("adversary", false, "run the standing adversary evaluation and emit BENCH_<runid>.json")
	shapeWL := fs.Bool("shape", false, "with -adversary: also run the shaped evaluation and fail if a gated shaped distinguisher beats the stealth ceiling")
	outDir := fs.String("out", ".", "directory the adversary run writes its BENCH_<runid>.json into")
	runID := fs.String("runid", "", "run id naming the BENCH JSON file (default: UTC timestamp)")
	gatewayWL := fs.Bool("gateway", false, "run the multi-process gateway fleet-migration workload and emit BENCH_<runid>.json")
	udpWL := fs.Bool("udp", false, "run the datagram workload (lossy packet link, batch fast path, loopback UDP) and fail on decode crashes or nonzero zero-overhead data bytes")
	inproc := fs.Bool("inproc", false, "with -gateway: run the backends as goroutines instead of child processes")
	backendsN := fs.Int("backends", 2, "backend processes in the gateway workload")
	gatewayBackend := fs.String("gateway-backend", "", "internal: serve one backend of the -gateway workload (JSON config)")
	cycles := fs.Int("cycles", 2, "migrate cycles per session in the gateway workload")
	sessions := fs.Int("sessions", 1024, "concurrent client sessions per phase in the gateway workload")
	showMetrics := fs.Bool("metrics", false, "with -gateway: print each backend's metrics after the workload")
	obsAddr := fs.String("obs", "", "serve /metrics, /snapshot.json and /debug/pprof on this address while workloads run (empty = off)")
	all := fs.Bool("all", false, "run every experiment for both protocols")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Child-process mode: the cross-process gateway workload re-invokes
	// this binary to run one backend; serve and exit before anything else.
	if *gatewayBackend != "" {
		return bench.RunGatewayBackendStdio(*gatewayBackend, os.Stdin, os.Stdout)
	}

	// The obs surface serves whatever workload endpoints are live at
	// scrape time; the gateway workload additionally self-scrapes it
	// mid-run and fails on an unserviceable page.
	obsBound := ""
	if *obsAddr != "" {
		ol, err := bench.StartObs(*obsAddr)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		defer ol.Close()
		obsBound = ol.Addr().String()
		fmt.Fprintf(os.Stderr, "protoobf-bench: obs on http://%s/metrics\n", obsBound)
	}

	// The gateway and datagram workloads have their own defaults for
	// -msgs; only an explicit value overrides them.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *gatewayWL {
		gcfg := bench.GatewayConfig{
			Sessions: *sessions,
			Cycles:   *cycles,
			Backends: *backendsN,
			Seed:     *seed,
			InProc:   *inproc,
			Metrics:  *showMetrics,
			ObsAddr:  obsBound,
		}
		if explicit["msgs"] {
			gcfg.MsgsPerCycle = *msgs
		}
		res, err := bench.RunGateway(ctx, gcfg)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
		created := time.Now().UTC()
		id := *runID
		if id == "" {
			id = created.Format("20060102T150405Z")
		}
		rep := &bench.BenchReport{
			Schema:  bench.BenchSchema,
			RunID:   id,
			Created: created.Format(time.RFC3339),
			Go:      runtime.Version(),
			Seed:    *seed,
			PerNode: res.Config.PerNode,
			Gateway: &res.Report,
		}
		path, err := rep.WriteJSON(*outDir)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		if res.Report.WarmDemandCompiles > 0 {
			return fmt.Errorf("warm fleet compiled %d dialects on demand — the artifact cache should have answered them (see %s)",
				res.Report.WarmDemandCompiles, path)
		}
		return nil
	}

	if *udpWL {
		dcfg := bench.DatagramConfig{Seed: *seed}
		if explicit["msgs"] {
			dcfg.Msgs = *msgs
		}
		res, err := bench.RunDatagram(ctx, dcfg)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
		created := time.Now().UTC()
		id := *runID
		if id == "" {
			id = created.Format("20060102T150405Z")
		}
		rep := &bench.BenchReport{
			Schema:   bench.BenchSchema,
			RunID:    id,
			Created:  created.Format(time.RFC3339),
			Go:       runtime.Version(),
			Seed:     *seed,
			PerNode:  res.Config.PerNode,
			Datagram: &res.Report,
		}
		path, err := rep.WriteJSON(*outDir)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		if c := res.Report.Crashes(); c > 0 {
			return fmt.Errorf("datagram workload crashed the receiver %d times (see %s)", c, path)
		}
		if bad := res.Report.ZeroOverheadViolations(); len(bad) > 0 {
			for _, l := range bad {
				fmt.Fprintf(os.Stderr, "zero-overhead %s leg added %d framing bytes to data packets\n", l.Transport, l.DataOverheadBytes)
			}
			return fmt.Errorf("zero-overhead mode added framing bytes (see %s)", path)
		}
		return nil
	}

	if *adversaryWL {
		rep, err := bench.RunAdversary(ctx, bench.AdversaryConfig{
			RunID:   *runID,
			Seed:    *seed,
			PerNode: 2,
			Shape:   *shapeWL,
		})
		if err != nil {
			return err
		}
		fmt.Print(rep.Table())
		path, err := rep.WriteJSON(*outDir)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		if rep.Mutation.Crashes > 0 {
			return fmt.Errorf("mutation campaign crashed %d times (see %s)", rep.Mutation.Crashes, path)
		}
		if rep.Shaping != nil {
			if bad := rep.Shaping.GateFailures(); len(bad) > 0 {
				for _, d := range bad {
					fmt.Fprintf(os.Stderr, "shaped %s accuracy %.3f exceeds the %.2f stealth gate\n", d.Name, d.Accuracy, bench.ShapeGate)
				}
				return fmt.Errorf("traffic shaping failed the stealth gate (see %s)", path)
			}
		}
		return nil
	}

	if *all {
		for _, p := range []string{"http", "modbus"} {
			res, err := bench.Run(bench.Config{Protocol: p, Runs: *runs, MsgsPerRun: *msgs, Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Println(res.Table())
			fig, err := res.TimeFigure()
			if err != nil {
				return err
			}
			fmt.Println(firstLines(fig, 3))
			fmt.Println(res.PotencyFigure())
			ab, err := bench.RunAblation(p, *msgs, *seed)
			if err != nil {
				return err
			}
			fmt.Println(ab.Table())
		}
		rr, err := bench.RunResilience(bench.ResilienceConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(rr.Table())
		return nil
	}

	if *resilience {
		rr, err := bench.RunResilience(bench.ResilienceConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Print(rr.Table())
		return nil
	}
	if *calibrate > 0 {
		cr, err := bench.Calibrate(bench.CalibrateConfig{Target: *calibrate, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Print(cr.Table())
		return nil
	}
	if *ablation {
		ab, err := bench.RunAblation(*protocol, *msgs, *seed)
		if err != nil {
			return err
		}
		fmt.Print(ab.Table())
		return nil
	}

	needCampaign := *table || *figure != ""
	if !needCampaign {
		return fmt.Errorf("nothing to do: pass -table, -figure, -resilience, -calibrate, -ablation or -all")
	}
	res, err := bench.Run(bench.Config{Protocol: *protocol, Runs: *runs, MsgsPerRun: *msgs, Seed: *seed})
	if err != nil {
		return err
	}
	if *table {
		fmt.Print(res.Table())
	}
	switch *figure {
	case "":
	case "time":
		fig, err := res.TimeFigure()
		if err != nil {
			return err
		}
		fmt.Print(fig)
	case "potency":
		fmt.Print(res.PotencyFigure())
	default:
		return fmt.Errorf("unknown figure %q (want time or potency)", *figure)
	}
	return nil
}

func firstLines(s string, n int) string {
	parts := strings.SplitAfterN(s, "\n", n+1)
	return strings.Join(parts[:min(n, len(parts))], "")
}
