package metrics

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// WriteProm renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4), so an endpoint's Metrics() can be served from a
// /metrics handler and scraped without pulling in a client library —
// this module stays dependency-free. Every family comes from a tagged
// Stats field (see Page.Add): counters, gauges for the live cache
// geometry, histogram families for the latency/size distributions
// (_bucket/_sum/_count with a terminal +Inf), and per-shard cache
// traffic under a shard label so hot-shard imbalance is visible to the
// scraper exactly as it is in CacheStats.PerShard. A
// protoobf_build_info gauge carries the module version so dashboards
// can correlate scrapes with builds.
//
// The writer is typically an http.ResponseWriter; any error is the
// writer's, surfaced on the first failing write.
func WriteProm(w io.Writer, s Snapshot) error {
	var p Page
	p.BuildInfo()
	p.Add(s)
	return p.Render(w)
}

// FleetSnapshot names one backend's Snapshot for fleet-level export.
type FleetSnapshot struct {
	Backend string
	Snap    Snapshot
}

// WriteFleetProm renders many backends' Snapshots as one exposition
// page: every family appears once (single HELP/TYPE header) with each
// backend's samples distinguished by a backend label — how a gateway's
// /metrics presents its whole fleet to one scrape. The build_info
// gauge describes the serving process and carries no backend label.
func WriteFleetProm(w io.Writer, fleet []FleetSnapshot) error {
	var p Page
	p.BuildInfo()
	for _, m := range fleet {
		p.Add(m.Snap, "backend", m.Backend)
	}
	return p.Render(w)
}

// Page is one exposition page under construction. Families render in
// the order they are first fed, each with exactly one HELP/TYPE header
// however many Add calls feed it (a fleet of backends) — the format's
// uniqueness rule. The zero Page is empty and ready to use.
type Page struct {
	fams   []*promFam
	byName map[string]*promFam
}

// promFam is one metric family: a single HELP/TYPE header and the
// sample rows collected under it, in emission order.
type promFam struct {
	name, help, typ string
	rows            []string
}

// Add renders every tagged field of stats, a Stats struct, as sample
// rows carrying the given constant labels (alternating names and
// values). A field is declared by two struct tags:
//
//	prom:"family[,label=value]" help:"Help text."
//
// The family type follows from the field: a name ending in _total is a
// counter; a HistogramStats field is a histogram, converted from
// nanoseconds to seconds when the name ends in _seconds; any other
// number is a gauge clamped at 0. A family fed by several fields (one
// per label value) gives its help on the first of them only. A slice
// tagged prom:",label" renders its elements' tagged fields once per
// element, under label="<index>". Untagged struct fields are walked
// into; other untagged fields are not exported.
func (p *Page) Add(stats any, labels ...string) {
	var ls []string
	for i := 0; i+1 < len(labels); i += 2 {
		ls = append(ls, labels[i]+`="`+escapeLabel(labels[i+1])+`"`)
	}
	v := reflect.ValueOf(stats)
	p.add(v, layout(v.Type()), strings.Join(ls, ","))
}

// series is one tagged field: where to read it and how to render it.
type series struct {
	name, typ, help string
	label           string   // constant label as key="value", or ""
	field           string   // Go path within the walked type
	index           []int    // reflect path to the field
	each            string   // a tagged slice's per-element label name
	elem            []series // a tagged slice's element layout
}

var histStatsType = reflect.TypeOf(HistogramStats{})

// layout lists the tagged fields of struct type t in field order. It
// panics on a family whose help is missing from its first field or
// repeated on a later one — a declaration bug every page test hits.
func layout(t reflect.Type) []series {
	var out []series
	seen := map[string]bool{}
	var walk func(t reflect.Type, index []int, path string)
	walk = func(t reflect.Type, index []int, path string) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			idx := append(index[:len(index):len(index)], i)
			tag, ok := f.Tag.Lookup("prom")
			if !ok {
				if f.Type.Kind() == reflect.Struct && f.Type != histStatsType {
					walk(f.Type, idx, path+f.Name+".")
				}
				continue
			}
			name, label, _ := strings.Cut(tag, ",")
			s := series{name: name, help: f.Tag.Get("help"), field: path + f.Name, index: idx}
			if f.Type.Kind() == reflect.Slice {
				s.each, s.elem = label, layout(f.Type.Elem())
				out = append(out, s)
				continue
			}
			switch {
			case f.Type == histStatsType:
				s.typ = "histogram"
			case strings.HasSuffix(name, "_total"):
				s.typ = "counter"
			default:
				s.typ = "gauge"
			}
			if key, val, ok := strings.Cut(label, "="); ok {
				s.label = key + `="` + escapeLabel(val) + `"`
			}
			if first := !seen[name]; first != (s.help != "") {
				panic("metrics: " + s.field + ": family " + name + " must give its help on its first field only")
			}
			seen[name] = true
			out = append(out, s)
		}
	}
	walk(t, nil, "")
	return out
}

// add renders v's fields as laid out, every row under labels.
func (p *Page) add(v reflect.Value, fields []series, labels string) {
	for _, s := range fields {
		f := v.FieldByIndex(s.index)
		ls := joinLabels(labels, s.label)
		switch {
		case f.Kind() == reflect.Slice:
			for i := 0; i < f.Len(); i++ {
				p.add(f.Index(i), s.elem, joinLabels(ls, s.each+`="`+strconv.Itoa(i)+`"`))
			}
		case s.typ == "histogram":
			p.histogram(s, f.Interface().(HistogramStats), ls)
		default:
			var n uint64
			if f.CanInt() {
				n = uint64(max(f.Int(), 0))
			} else {
				n = f.Uint()
			}
			p.family(s).row(s.name, ls, strconv.FormatUint(n, 10))
		}
	}
}

// family returns s's family, creating it (in output order) on first
// use.
func (p *Page) family(s series) *promFam {
	if f, ok := p.byName[s.name]; ok {
		return f
	}
	if p.byName == nil {
		p.byName = make(map[string]*promFam)
	}
	f := &promFam{name: s.name, help: s.help, typ: s.typ}
	p.byName[s.name] = f
	p.fams = append(p.fams, f)
	return f
}

// row appends one sample named exactly name (which may carry a
// histogram suffix) under the rendered labels, if any.
func (f *promFam) row(name, labels, value string) {
	if labels == "" {
		f.rows = append(f.rows, name+" "+value)
	} else {
		f.rows = append(f.rows, name+"{"+labels+"} "+value)
	}
}

func joinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// histogram emits h as a Prometheus histogram family: cumulative
// _bucket rows up to the highest occupied bucket, a terminal +Inf
// bucket equal to _count, and _sum. A _seconds family divides the raw
// log2 bucket bounds and sum by 1e9, turning nanoseconds into the
// conventional seconds; any other keeps raw values (batch sizes).
func (p *Page) histogram(s series, h HistogramStats, labels string) {
	scale := 1.0
	if strings.HasSuffix(s.name, "_seconds") {
		scale = 1e9
	}
	f := p.family(s)
	hi := 0
	for i := HistBuckets - 1; i >= 0; i-- {
		if h.Buckets[i] != 0 {
			hi = i
			break
		}
	}
	var cum uint64
	for i := 0; i <= hi; i++ {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(float64(BucketBound(i))/scale, 'g', -1, 64)
		f.row(s.name+"_bucket", joinLabels(labels, `le="`+le+`"`), strconv.FormatUint(cum, 10))
	}
	f.row(s.name+"_bucket", joinLabels(labels, `le="+Inf"`), strconv.FormatUint(h.Count, 10))
	f.row(s.name+"_sum", labels, strconv.FormatFloat(float64(h.Sum)/scale, 'g', -1, 64))
	f.row(s.name+"_count", labels, strconv.FormatUint(h.Count, 10))
}

// buildInfo is the value behind the protoobf_build_info gauge.
type buildInfo struct {
	Info uint64 `prom:"protoobf_build_info" help:"Build metadata of the serving process (value is always 1)."`
}

// BuildInfo adds the protoobf_build_info gauge: constant 1 with the
// module version and Go runtime as labels, the conventional shape for
// correlating a scrape with the build that produced it. It describes
// the serving process, so it takes no backend label.
func (p *Page) BuildInfo() {
	p.Add(buildInfo{1}, "version", moduleVersion(), "goversion", runtime.Version())
}

// moduleVersion reports the main module's version from the build info
// ("(devel)" for plain builds, a semver for module-built binaries).
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// Render writes the collected families in registration order,
// returning the first write error.
func (p *Page) Render(w io.Writer) error {
	for _, f := range p.fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, r := range f.rows {
			if _, err := io.WriteString(w, r+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// escapeLabel escapes a label value per the text exposition format
// (version 0.0.4): backslash, double-quote and newline only. Go's %q is
// NOT equivalent — it emits \uXXXX and \xXX escapes for control and
// non-ASCII bytes, which the Prometheus parser does not define and
// either rejects or reads literally.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
