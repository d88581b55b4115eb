package main

import (
	"strings"
	"testing"
)

func TestParseBackend(t *testing.T) {
	b, err := parseBackend("b1=10.0.0.1:9001")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "b1" || b.Addr != "10.0.0.1:9001" {
		t.Fatalf("parsed %+v", b)
	}
	for _, bad := range []string{"", "b1", "=addr", "b1=", "nameonly="} {
		if _, err := parseBackend(bad); err == nil {
			t.Fatalf("parseBackend(%q) accepted", bad)
		}
	}
	// IPv6 addresses keep everything after the first '='.
	b, err = parseBackend("v6=[::1]:9001")
	if err != nil {
		t.Fatal(err)
	}
	if b.Addr != "[::1]:9001" {
		t.Fatalf("v6 addr = %q", b.Addr)
	}
}

func TestRunRejectsEmptyFleet(t *testing.T) {
	err := run([]string{"-listen", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("run without backends: %v", err)
	}
}

func TestBackendFlagAccumulates(t *testing.T) {
	var b backendFlags
	if err := b.Set("a=1:1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Set("b=1:2"); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "a=1:1,b=1:2" {
		t.Fatalf("String() = %q", got)
	}
	if err := b.Set("garbage"); err == nil {
		t.Fatal("bad flag value accepted")
	}
}

// TestBackendObsFlagRejectsDuplicate: two -backend-obs flags with one
// name would put duplicate series on the fleet page.
func TestBackendObsFlagRejectsDuplicate(t *testing.T) {
	var b obsBackendFlags
	if err := b.Set("b=127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Set("b=127.0.0.1:2"); err == nil {
		t.Fatal("duplicate backend obs name accepted")
	}
	if err := b.Set("c=127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "b=127.0.0.1:1,c=127.0.0.1:2" {
		t.Fatalf("String() = %q", got)
	}
	err := run([]string{"-listen", "127.0.0.1:0", "-backend", "b1=127.0.0.1:1",
		"-backend-obs", "b=127.0.0.1:1", "-backend-obs", "b=127.0.0.1:2"})
	if err == nil || !strings.Contains(err.Error(), "given twice") {
		t.Fatalf("run with a duplicate -backend-obs: %v", err)
	}
}
