package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smallGateway is an in-proc workload sized for CI.
func smallGateway(t *testing.T) GatewayConfig {
	t.Helper()
	return GatewayConfig{
		Sessions:     8,
		Cycles:       2,
		MsgsPerCycle: 2,
		Backends:     2,
		PerNode:      1,
		Seed:         11,
		InProc:       true,
		ArtifactDir:  t.TempDir(),
	}
}

func TestRunGatewayInProc(t *testing.T) {
	cfg := smallGateway(t)
	res, err := RunGateway(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report

	wantResumes := uint64(2 * cfg.Sessions * cfg.Cycles) // both phases
	if rep.Resumes != wantResumes {
		t.Errorf("resumes = %d, want %d", rep.Resumes, wantResumes)
	}
	if rep.WarmDemandCompiles != 0 {
		t.Errorf("warm fleet demand-compiled %d dialects; the artifact cache should have answered them", rep.WarmDemandCompiles)
	}
	if rep.WarmArtifactLoads == 0 {
		t.Error("warm fleet loaded nothing from the artifact cache")
	}
	if rep.ColdDemandCompiles == 0 {
		t.Error("cold fleet compiled nothing — the phases are not actually cold/warm")
	}
	if rep.ReplayProbes == 0 || rep.ReplayRejected != rep.ReplayProbes {
		t.Errorf("replay probes %d, rejected %d — every probe must be refused", rep.ReplayProbes, rep.ReplayRejected)
	}
	var warmAccepts uint64
	for _, n := range rep.BackendResumeAccepts {
		warmAccepts += n
	}
	if want := uint64(cfg.Sessions * cfg.Cycles); warmAccepts != want {
		t.Errorf("warm backends accepted %d resumes, want %d", warmAccepts, want)
	}
	if got := res.Table(); !strings.Contains(got, "gateway workload") {
		t.Errorf("table output:\n%s", got)
	}

	// The report embeds in the BENCH schema and survives validation.
	full := &BenchReport{
		Schema:  BenchSchema,
		RunID:   "gwtest",
		Created: time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		Seed:    cfg.Seed,
		PerNode: cfg.PerNode,
		Gateway: &rep,
	}
	if _, err := full.WriteJSON(t.TempDir()); err != nil {
		t.Fatalf("gateway-only report rejected: %v", err)
	}
}

func TestGatewayReportValidateRejects(t *testing.T) {
	base := func() *BenchReport {
		return &BenchReport{
			Schema:  BenchSchema,
			RunID:   "gwtest",
			Created: time.Now().UTC().Format(time.RFC3339),
			Go:      runtime.Version(),
			Gateway: &GatewayReport{
				Sessions: 8, Backends: 2, Cycles: 2,
				Resumes: 32, ReplayProbes: 8, ReplayRejected: 8,
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("sound gateway-only report rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(*BenchReport)
	}{
		{"no-sections", func(r *BenchReport) { r.Gateway = nil }},
		{"no-backends", func(r *BenchReport) { r.Gateway.Backends = 0 }},
		{"no-resumes", func(r *BenchReport) { r.Gateway.Resumes = 0 }},
		{"replay-leak", func(r *BenchReport) { r.Gateway.ReplayRejected-- }},
	}
	for _, c := range cases {
		bad := base()
		c.corrupt(bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: corrupted report validated", c.name)
		}
	}
}

func TestRunGatewayBackendStdio(t *testing.T) {
	cfgJSON, err := json.Marshal(gatewayBackendConfig{
		Listen:      "127.0.0.1:0",
		Tag:         3,
		ArtifactDir: t.TempDir(),
		Seed:        11,
		PerNode:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stdinR, stdinW := io.Pipe()
	stdoutR, stdoutW := io.Pipe()
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunGatewayBackendStdio(string(cfgJSON), stdinR, stdoutW)
		stdoutW.Close()
	}()
	sc := bufio.NewScanner(stdoutR)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "ADDR ") {
		t.Fatalf("first line = %q, want ADDR", sc.Text())
	}
	addr := strings.TrimPrefix(sc.Text(), "ADDR ")
	if addr == "" || !strings.Contains(addr, ":") {
		t.Fatalf("ADDR line carried %q", addr)
	}
	stdinW.Close() // EOF is the shutdown signal
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "METRICS ") {
		t.Fatalf("second line = %q, want METRICS", sc.Text())
	}
	var m BackendMetrics
	if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "METRICS ")), &m); err != nil {
		t.Fatalf("metrics line: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("backend exited with %v", err)
	}

	if err := RunGatewayBackendStdio("{not json", bytes.NewReader(nil), io.Discard); err == nil {
		t.Error("malformed config accepted")
	}
}
