package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTableSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	if err := run(context.Background(), []string{"-protocol", "http", "-table", "-runs", "2", "-msgs", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	if err := run(context.Background(), []string{"-protocol", "modbus", "-figure", "potency", "-runs", "2", "-msgs", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-protocol", "modbus", "-figure", "time", "-runs", "2", "-msgs", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAdversaryWorkload(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-adversary", "-out", dir, "-runid", "cli-test", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_cli-test.json"))
	if err != nil {
		t.Fatalf("BENCH JSON not written: %v", err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH JSON malformed: %v", err)
	}
	for _, key := range []string{"schema", "run_id", "created", "distinguishers", "mutation", "covert"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("BENCH JSON lacks %q", key)
		}
	}
	for _, key := range []string{"perf", "latency"} {
		if _, ok := rep[key]; ok {
			t.Errorf("BENCH JSON carries the removed %s block", key)
		}
	}
	if got := rep["schema"]; got != "protoobf-bench/v2" {
		t.Errorf("schema = %v", got)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), []string{}); err == nil {
		t.Error("no action accepted")
	}
	if err := run(context.Background(), []string{"-figure", "nope", "-runs", "1", "-msgs", "2"}); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run(context.Background(), []string{"-protocol", "ftp", "-table", "-runs", "1"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	// Timing throughput is perfbench's job: the timed workloads' flags
	// must not parse.
	for _, flag := range []string{"-session", "-endpoint", "-migrate"} {
		if err := run(context.Background(), []string{flag}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

func TestFirstLines(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"a\nb\nc\n", "a\nb\n"},
		{"a\nb\n", "a\nb\n"},
		{"a", "a"},
	} {
		if got := firstLines(c.in, 2); got != c.want {
			t.Errorf("firstLines(%q, 2) = %q, want %q", c.in, got, c.want)
		}
	}
}
