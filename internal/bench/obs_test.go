package bench

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"protoobf"
	"protoobf/internal/metrics"
)

// mustEndpoint mints a bare endpoint for publish/scrape tests.
func mustEndpoint(t *testing.T) *protoobf.Endpoint {
	t.Helper()
	ep, err := protoobf.NewEndpoint(sessionSpec, protoobf.Options{PerNode: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// TestObsSelfScrapeGateway runs the in-proc gateway workload against a
// live bench obs server: the workload self-scrapes mid-run (failing
// the run on an unserviceable page), and the test scrapes again
// afterwards to check the page shape directly.
func TestObsSelfScrapeGateway(t *testing.T) {
	ln, err := StartObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg := smallGateway(t)
	cfg.ObsAddr = ln.Addr().String()
	if _, err := RunGateway(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	// The run passed, so both mid-run self-scrapes succeeded. Scrape
	// once more: the page must still lint with the fleet torn down.
	if err := selfScrape(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
}

// TestObsFleetPage checks the merged page while endpoints are
// published: one family header, one sample per published role.
func TestObsFleetPage(t *testing.T) {
	ln, err := StartObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	unpublish := publishObs("endpoint-srv", mustEndpoint(t))
	defer unpublish()

	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := readBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.LintProm(page); err != nil {
		t.Fatalf("fleet page fails lint: %v\n%s", err, page)
	}
	for _, want := range []string{
		"protoobf_build_info{",
		`backend="endpoint-srv"`,
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("fleet page missing %q:\n%s", want, page)
		}
	}
}
