package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"protoobf"
	"protoobf/internal/metrics"
)

// The bench CLI's -obs surface: one HTTP server for the whole run.
// Workloads publish their live endpoints into a process-wide registry,
// so a scrape that lands mid-run sees whatever endpoints are up at
// that instant — fleet-merged under a role label, the same page shape
// the gateway serves for its backends.

var obsReg = struct {
	mu      sync.Mutex
	entries map[string]*protoobf.Endpoint
}{entries: map[string]*protoobf.Endpoint{}}

// publishObs registers ep on the -obs surface under a role name (for
// example "gateway-cli"). The returned func unpublishes it; a second
// publish under the same name replaces the first.
func publishObs(name string, ep *protoobf.Endpoint) func() {
	obsReg.mu.Lock()
	obsReg.entries[name] = ep
	obsReg.mu.Unlock()
	return func() {
		obsReg.mu.Lock()
		delete(obsReg.entries, name)
		obsReg.mu.Unlock()
	}
}

// obsFleet snapshots every published endpoint, in name order.
func obsFleet() []metrics.FleetSnapshot {
	obsReg.mu.Lock()
	names := make([]string, 0, len(obsReg.entries))
	for n := range obsReg.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	fleet := make([]metrics.FleetSnapshot, 0, len(names))
	for _, n := range names {
		fleet = append(fleet, metrics.FleetSnapshot{Backend: n, Snap: obsReg.entries[n].Metrics()})
	}
	obsReg.mu.Unlock()
	return fleet
}

// StartObs binds addr and serves the bench obs surface on it:
// /metrics (Prometheus text, all published workload endpoints merged
// under a backend label), /snapshot.json (the same snapshots as JSON,
// keyed by role), and /debug/pprof. The returned listener's address is
// how ":0" callers learn the bound port.
func StartObs(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WriteFleetProm(w, obsFleet())
	})
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, _ *http.Request) {
		snaps := map[string]metrics.Snapshot{}
		for _, f := range obsFleet() {
			snaps[f.Backend] = f.Snap
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snaps)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go (&http.Server{Handler: mux}).Serve(l)
	return l, nil
}

// selfScrape fetches the obs surface at addr as a scraper would and
// verifies it is serviceable: /metrics must answer 200 with a page
// that passes the exposition lint, and /snapshot.json must answer 200
// with decodable JSON. Workloads call this mid-run when configured
// with an obs address, turning every CI bench run into an end-to-end
// test of the scrape path.
func selfScrape(addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return fmt.Errorf("obs self-scrape: %w", err)
	}
	page, err := readBody(resp)
	if err != nil {
		return fmt.Errorf("obs self-scrape: /metrics: %w", err)
	}
	if err := metrics.LintProm(page); err != nil {
		return fmt.Errorf("obs self-scrape: /metrics fails lint: %w", err)
	}
	resp, err = client.Get("http://" + addr + "/snapshot.json")
	if err != nil {
		return fmt.Errorf("obs self-scrape: %w", err)
	}
	body, err := readBody(resp)
	if err != nil {
		return fmt.Errorf("obs self-scrape: /snapshot.json: %w", err)
	}
	var snaps map[string]metrics.Snapshot
	if err := json.Unmarshal(body, &snaps); err != nil {
		return fmt.Errorf("obs self-scrape: /snapshot.json does not decode: %w", err)
	}
	return nil
}

// readBody drains one response, enforcing a 200 status.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return out, nil
}
