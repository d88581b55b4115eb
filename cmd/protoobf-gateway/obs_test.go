package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"protoobf/internal/gateway"
	"protoobf/internal/metrics"
)

// TestHandleMetrics drives the gateway's /metrics handler over a fleet
// of one live backend (an httptest server answering /snapshot.json)
// and one unreachable one, under names that need label escaping.
func TestHandleMetrics(t *testing.T) {
	var snap metrics.Snapshot
	snap.Rotation.Compiles = 7
	snap.Resume.RejectedReplayed = 2
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot.json" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(snap)
	}))
	defer live.Close()

	// A port that was just released refuses connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	gw, err := gateway.New(gateway.Config{Registry: gateway.NewRegistry(0)})
	if err != nil {
		t.Fatal(err)
	}
	o := &obsServer{
		gw: gw,
		backends: []obsBackend{
			{name: `live"b\1`, addr: strings.TrimPrefix(live.URL, "http://")},
			{name: "dead\nb2", addr: deadAddr},
		},
		client: &http.Client{Timeout: 5 * time.Second},
	}
	rec := httptest.NewRecorder()
	o.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	page := rec.Body.String()

	if err := metrics.LintProm([]byte(page)); err != nil {
		t.Fatalf("gateway /metrics fails lint: %v\n%s", err, page)
	}
	for _, want := range []string{
		`protoobf_gateway_backend_up{backend="live\"b\\1"} 1`,
		`protoobf_gateway_backend_up{backend="dead\nb2"} 0`,
		`protoobf_rotation_compiles_total{backend="live\"b\\1"} 7`,
		`protoobf_resume_rejects_total{backend="live\"b\\1",reason="replay"} 2`,
		"protoobf_gateway_accepted_total 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
	if strings.Contains(page, `protoobf_rotation_compiles_total{backend="dead`) {
		t.Error("unreachable backend contributed fleet samples")
	}
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "protoobf_rotation_") && !strings.Contains(line, `{backend="`) {
			t.Errorf("fleet sample without backend label: %q", line)
		}
	}
	if n := strings.Count(page, "\nprotoobf_build_info{"); n != 1 {
		t.Errorf("protoobf_build_info sample appears %d times, want 1", n)
	}
	if n := strings.Count(page, "# TYPE protoobf_build_info "); n != 1 {
		t.Errorf("protoobf_build_info header appears %d times, want 1", n)
	}
	if t.Failed() {
		t.Log(page)
	}
}
