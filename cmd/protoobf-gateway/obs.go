package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"protoobf/internal/gateway"
	"protoobf/internal/metrics"
)

// The gateway's observability surface: its own routing counters plus a
// fleet view assembled by scraping each backend's obs address
// (-backend-obs name=addr, pointing at the /snapshot.json a backend
// serving protoobf.ObsHandler exposes). One gateway scrape therefore
// sees the whole fleet — every backend's families merged under a
// backend label — without the scraper having to reach the backends.

// obsBackend pairs a backend name with its obs (snapshot) address.
type obsBackend struct {
	name string
	addr string
}

// obsBackendFlags collects repeatable -backend-obs name=addr flags.
type obsBackendFlags []obsBackend

func (b *obsBackendFlags) String() string {
	s := ""
	for i, be := range *b {
		if i > 0 {
			s += ","
		}
		s += be.name + "=" + be.addr
	}
	return s
}

func (b *obsBackendFlags) Set(v string) error {
	name, addr, err := splitNameAddr(v)
	if err != nil {
		return err
	}
	*b = append(*b, obsBackend{name: name, addr: addr})
	return nil
}

// obsServer scrapes the fleet and serves the merged page.
type obsServer struct {
	gw       *gateway.Gateway
	backends []obsBackend
	client   *http.Client
}

// fetchSnapshot pulls one backend's /snapshot.json.
func (o *obsServer) fetchSnapshot(addr string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := o.client.Get("http://" + addr + "/snapshot.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("backend obs %s: status %d", addr, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// fleet scrapes every configured backend, returning the reachable
// snapshots plus a per-backend up/down map.
func (o *obsServer) fleet() ([]metrics.FleetSnapshot, map[string]bool) {
	up := make(map[string]bool, len(o.backends))
	var fleet []metrics.FleetSnapshot
	for _, b := range o.backends {
		snap, err := o.fetchSnapshot(b.addr)
		up[b.name] = err == nil
		if err != nil {
			continue
		}
		fleet = append(fleet, metrics.FleetSnapshot{Backend: b.name, Snap: snap})
	}
	return fleet, up
}

// backendUp is one backend's row of the fleet page's reachability
// gauge.
type backendUp struct {
	Up uint64 `prom:"protoobf_gateway_backend_up" help:"Whether the backend's obs address answered the last fleet scrape."`
}

func (o *obsServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var p metrics.Page
	p.Add(o.gw.Stats())
	fleet, up := o.fleet()
	names := make([]string, 0, len(up))
	for n := range up {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var v backendUp
		if up[n] {
			v.Up = 1
		}
		p.Add(v, "backend", n)
	}
	p.BuildInfo()
	for _, f := range fleet {
		p.Add(f.Snap, "backend", f.Backend)
	}
	p.Render(w)
}

func (o *obsServer) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	fleet, up := o.fleet()
	backends := make(map[string]metrics.Snapshot, len(fleet))
	for _, f := range fleet {
		backends[f.Backend] = f.Snap
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Gateway  gateway.Stats               `json:"gateway"`
		Up       map[string]bool             `json:"up"`
		Backends map[string]metrics.Snapshot `json:"backends"`
	}{o.gw.Stats(), up, backends})
}

// startObs binds addr and serves the gateway obs surface on it. The
// returned listener address is how ":0" callers learn the bound port.
func startObs(addr string, gw *gateway.Gateway, backends []obsBackend) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	o := &obsServer{gw: gw, backends: backends, client: &http.Client{Timeout: 5 * time.Second}}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/snapshot.json", o.handleSnapshot)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go (&http.Server{Handler: mux}).Serve(l)
	return l, nil
}
