package metrics_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"protoobf/internal/gateway"
	"protoobf/internal/metrics"
)

// distinctSnapshot sets every field of a Snapshot to a distinct
// non-zero value: each counter and gauge gets the next integer, each
// histogram four occupied buckets, and the cache two shard rows.
func distinctSnapshot() metrics.Snapshot {
	var s metrics.Snapshot
	next := uint64(0)
	fillDistinct(reflect.ValueOf(&s).Elem(), &next)
	return s
}

func fillDistinct(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Struct:
		if h, ok := v.Addr().Interface().(*metrics.HistogramStats); ok {
			base := *next + 1
			*next += 4
			for j, b := range []int{0, 7, 13 + int(base%17), 40} {
				h.Buckets[b] += base + uint64(j)
				h.Count += base + uint64(j)
			}
			h.Sum = base * 1_000_003
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Int:
		*next++
		v.SetInt(int64(*next))
	}
}

// buildInfoLabels matches the build_info labels, which name the module
// version and the Go toolchain and so differ between CI's Go versions.
var buildInfoLabels = regexp.MustCompile(`(?m)^protoobf_build_info\{.*\} 1$`)

// TestGoldenPages pins every byte of the exposition pages the repo
// serves: a fully populated endpoint snapshot, the zero snapshot, a
// two-backend fleet page and the gateway's routing counters. On a
// mismatch it prints the page it rendered; a deliberate change to a
// page is made by hand in testdata.
func TestGoldenPages(t *testing.T) {
	gw := gateway.Stats{
		Accepted: 101, FreshRouted: 102, ResumeRouted: 103,
		ReplayRejects: 104, ForgedRejects: 105, DialErrors: 106, HeaderErrors: 107,
	}
	pages := map[string]func(*strings.Builder) error{
		"populated.prom": func(sb *strings.Builder) error { return metrics.WriteProm(sb, distinctSnapshot()) },
		"zero.prom":      func(sb *strings.Builder) error { return metrics.WriteProm(sb, metrics.Snapshot{}) },
		"fleet.prom": func(sb *strings.Builder) error {
			return metrics.WriteFleetProm(sb, []metrics.FleetSnapshot{
				{Backend: "we\"ird\\na\nme", Snap: metrics.Snapshot{}},
				{Backend: "b2", Snap: distinctSnapshot()},
			})
		},
		"gateway.prom": func(sb *strings.Builder) error {
			var p metrics.Page
			p.Add(gw)
			return p.Render(sb)
		},
	}
	for name, render := range pages {
		var sb strings.Builder
		if err := render(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := metrics.LintProm([]byte(sb.String())); err != nil {
			t.Errorf("%s fails lint: %v", name, err)
		}
		got := buildInfoLabels.ReplaceAllString(sb.String(), `protoobf_build_info{version="V",goversion="GO"} 1`)
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from testdata; rendered page:\n%s", name, got)
		}
	}
}
