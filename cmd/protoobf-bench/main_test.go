package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
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

func TestRunSessionWorkload(t *testing.T) {
	if err := run(context.Background(), []string{"-session", "-epochs", "4", "-msgs", "4", "-rekey-every", "2", "-window", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEndpointWorkload(t *testing.T) {
	if err := run(context.Background(), []string{"-endpoint", "-sessions", "4", "-epochs", "3", "-msgs", "4", "-rekey-every", "2", "-window", "16", "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMigrateWorkload(t *testing.T) {
	if err := run(context.Background(), []string{"-migrate", "-sessions", "3", "-cycles", "2", "-msgs", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-migrate", "-sessions", "2", "-cycles", "2", "-msgs", "2", "-tcp", "-metrics"}); err != nil {
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
	if _, ok := rep["perf"]; ok {
		t.Error("BENCH JSON carries the removed perf block")
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
}

func TestFirstLines(t *testing.T) {
	if got := firstLines("a\nb\nc\n", 2); got != "a\nb\n" {
		t.Errorf("firstLines = %q", got)
	}
}
