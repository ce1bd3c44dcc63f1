package flight

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the one metrics registry: counters, gauges, and fixed-bucket
// histograms keyed by name. It never touches the wall clock and its text
// exposition sorts every series by name, so two identical single-threaded
// runs render byte-identical snapshots; every value is an atomic word, so the
// serving plane's concurrent handlers observe through the same types (an
// atomic add is exact when nothing races it). Metric names follow Prometheus
// conventions and may carry a `{label="value"}` suffix; HELP/TYPE headers
// are emitted once per base name.
//
// Registration (Counter/Gauge/Histogram lookup by name) takes the registry
// mutex and may allocate; hot paths register once and hold the returned
// handle. The observation methods (Inc, Add, Set, Observe) are safe for
// concurrent use and allocation-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string // keyed by base name (label suffix stripped)
	typ        map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
		typ:        map[string]string{},
	}
}

// atomicFloat is a float64 stored as its bits in one atomic word.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds d (must be non-negative; not enforced).
func (c *Counter) Add(d float64) { c.v.add(d) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram counts observations into fixed buckets with Prometheus `le`
// (less-or-equal) semantics: an observation lands in the first bucket whose
// upper edge is >= the value; values above the last edge land in the
// implicit +Inf bucket. NaN observations are ignored (they would poison the
// running sum and break determinism of comparisons). The observation count
// is not stored: it is the bucket total, so a reader never sees a _count
// that disagrees with the +Inf bucket, however many writers are mid-Observe.
type Histogram struct {
	edges  []float64       // ascending upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(edges)+1; last is the +Inf bucket
	sum    atomicFloat
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.edges, v) // first i with edges[i] >= v
	h.counts[i].Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Buckets returns the bucket edges and a copy of the per-bucket
// (non-cumulative) counts; the final count is the +Inf bucket.
func (h *Histogram) Buckets() (edges []float64, counts []uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.edges, counts
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket holding rank q*count — Prometheus' histogram_quantile
// rule: the first bucket's lower bound is 0 (or its own edge if that is not
// positive), and a rank that falls in the +Inf bucket reports the last
// finite edge. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	edges, counts := h.Buckets()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts[:len(edges)] {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = edges[i-1]
		} else if edges[0] <= 0 {
			return edges[0]
		}
		return lo + (edges[i]-lo)*(rank-float64(cum))/float64(c)
	}
	// The rank falls in the +Inf bucket.
	if len(edges) == 0 {
		return 0
	}
	return edges[len(edges)-1]
}

func baseName(name string) string {
	base, _ := splitLabels(name)
	return base
}

// register records name's family under r.mu, rejecting a type conflict.
func (r *Registry) register(name, help, typ string) {
	base := baseName(name)
	if _, ok := r.help[base]; !ok {
		r.help[base] = help
		r.typ[base] = typ
	} else if r.typ[base] != typ {
		panic(fmt.Sprintf("flight: metric %q re-registered as %s, was %s", base, typ, r.typ[base]))
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, help, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, help, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given ascending bucket edges if needed. Edges must be sorted ascending;
// re-registration ignores the edges argument.
func (r *Registry) Histogram(name, help string, edges []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if !sort.Float64sAreSorted(edges) {
		panic(fmt.Sprintf("flight: histogram %q edges not ascending: %v", name, edges))
	}
	r.register(name, help, "histogram")
	h := &Histogram{edges: append([]float64(nil), edges...), counts: make([]atomic.Uint64, len(edges)+1)}
	r.histograms[name] = h
	return h
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text per the exposition format: backslash and
// newline (double quotes are legal in HELP).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// SeriesName builds a registry series name "base{k1="v1",k2="v2"}" from
// alternating key/value pairs, escaping label values. Use it whenever a
// label value is not a known-safe literal. With no pairs it returns base
// unchanged.
func SeriesName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("flight: SeriesName(%q): odd key/value list", base))
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabels splits "name{a="b"}" into ("name", `a="b"`).
func splitLabels(name string) (string, string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// PrometheusText renders every metric in the Prometheus text exposition
// format. Output is conformant and deterministic: series are grouped into
// metric families (one HELP/TYPE header per family, all of the family's
// series contiguous under it — never interleaved with another family, even
// when a family's name is a prefix of another's), families are ordered by
// name, series within a family by label set, histogram buckets are
// cumulative and end at le="+Inf" with _count equal to the +Inf bucket.
// Safe to call while other goroutines observe and register.
func (r *Registry) PrometheusText() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Group series by family (base name) first: sorting raw series names
	// would interleave families whose names share a prefix (`h{a="1"}` >
	// `h2`, because '{' sorts after digits), which the exposition format
	// forbids.
	families := map[string][]string{}
	collect := func(name string) {
		base, _ := splitLabels(name)
		families[base] = append(families[base], name)
	}
	for n := range r.counters {
		collect(n)
	}
	for n := range r.gauges {
		collect(n)
	}
	for n := range r.histograms {
		collect(n)
	}
	bases := make([]string, 0, len(families))
	for base := range families {
		bases = append(bases, base)
	}
	sort.Strings(bases)

	var b strings.Builder
	series := func(base, labels, suffix, extra, value string) {
		b.WriteString(base)
		b.WriteString(suffix)
		all := labels
		if extra != "" {
			if all != "" {
				all += ","
			}
			all += extra
		}
		if all != "" {
			b.WriteString("{")
			b.WriteString(all)
			b.WriteString("}")
		}
		b.WriteString(" ")
		b.WriteString(value)
		b.WriteString("\n")
	}
	for _, base := range bases {
		fmt.Fprintf(&b, "# HELP %s %s\n", base, escapeHelp(r.help[base]))
		fmt.Fprintf(&b, "# TYPE %s %s\n", base, r.typ[base])
		names := families[base]
		sort.Strings(names)
		for _, name := range names {
			_, labels := splitLabels(name)
			if c, ok := r.counters[name]; ok {
				series(base, labels, "", "", formatFloat(c.Value()))
				continue
			}
			if g, ok := r.gauges[name]; ok {
				series(base, labels, "", "", formatFloat(g.Value()))
				continue
			}
			h := r.histograms[name]
			edges, counts := h.Buckets()
			var cum uint64
			for i, edge := range edges {
				cum += counts[i]
				series(base, labels, "_bucket", `le="`+formatFloat(edge)+`"`, strconv.FormatUint(cum, 10))
			}
			cum += counts[len(edges)]
			series(base, labels, "_bucket", `le="+Inf"`, strconv.FormatUint(cum, 10))
			series(base, labels, "_sum", "", formatFloat(h.Sum()))
			series(base, labels, "_count", "", strconv.FormatUint(cum, 10))
		}
	}
	return b.String()
}
