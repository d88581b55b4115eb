// Command perfbench is the repository benchmark: one workload per run,
// a fixed amount of work per run, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one.
//
//	bash perfbench/run.sh --workload modbus-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones (and the kept
// spans go to a JSON-lines file under -spans). The run exits non-zero
// when any exchange failed or a workload property check did not hold.
// BENCHMARK.json at the repository root lists the metrics; layers.json
// next to this file maps each layer metric to the end-to-end metric and
// workload it should move. NOISE.md lists the noise sources the design
// removes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string    // directory for span files (traced runs)
	t0       time.Time // the run's clock epoch

	// exchanges, when positive, replaces the work derived from seconds
	// and lifts the 10k-exchange floor: the smoke test's tiny runs.
	exchanges int
}

// clockBase is the process's clock epoch for nanotime.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

func main() {
	// One processor: the driver, the TCP workload's server goroutine and
	// the GC share it, so no goroutine hand-off or idle GC worker depends
	// on how the host schedules a second CPU.
	runtime.GOMAXPROCS(1)
	// A GC every 4x the live heap, not 2x: the GC's cost is what a
	// contended host slows most, and at the default it moved the same
	// run's throughput by 17%. Allocation still shows in
	// alloc_bytes_per_msg and runtime.gc_cycles_per_kmsg.
	debug.SetGCPercent(400)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runLimit stops a run that hangs (a lost packet on an inline packet
// pair would block forever) well inside the 180 s a run may take.
const runLimit = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: generates the messages")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measuring budget in seconds; sets the fixed work of the run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 1 || cfg.seconds > 60 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be 1..60 and --trace 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.t0 = time.Now()

	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", w.name, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, err := w.run(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, msg := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, msg)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.correct() {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	// problems lists failed exchanges and workload property checks
	// that did not hold.
	problems []string
	// spans are the kept spans of a traced run.
	spans []span
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *report) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
}
