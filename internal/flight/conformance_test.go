package flight

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusTextFamilyGrouping: families whose names share a prefix must
// not interleave. A raw sort of full series names would order `h2` between
// `h` and `h{a="1"}` (because '2' < '{'), splitting family h in two — the
// exposition format requires every family's series contiguous under one
// HELP/TYPE header. Golden output locks the grouped rendering.
func TestPrometheusTextFamilyGrouping(t *testing.T) {
	r := NewRegistry()
	r.Counter(`h{a="1"}`, "family h").Inc()
	r.Counter("h2", "family h2").Add(2)
	r.Counter("h", "family h").Add(3)
	want := `# HELP h family h
# TYPE h counter
h 3
h{a="1"} 1
# HELP h2 family h2
# TYPE h2 counter
h2 2
`
	got := r.PrometheusText()
	if got != want {
		t.Fatalf("grouped rendering mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := LintExposition(got); err != nil {
		t.Fatalf("own output fails lint: %v", err)
	}
}

// TestPrometheusTextEscaping: label values built via SeriesName escape
// backslash, quote, and newline; HELP escapes backslash and newline.
func TestPrometheusTextEscaping(t *testing.T) {
	r := NewRegistry()
	name := SeriesName("paths", "route", "/v1/ingest", "note", "a\\b\"c\nd")
	r.Counter(name, "routes with \\ and\nnewline").Inc()
	want := `# HELP paths routes with \\ and\nnewline
# TYPE paths counter
paths{route="/v1/ingest",note="a\\b\"c\nd"} 1
`
	got := r.PrometheusText()
	if got != want {
		t.Fatalf("escaped rendering mismatch:\n got:\n%q\nwant:\n%q", got, want)
	}
	exp, err := ParseExposition(got)
	if err != nil {
		t.Fatalf("own output fails parse: %v", err)
	}
	s := exp.Sample("paths", "route", "/v1/ingest")
	if s == nil {
		t.Fatal("escaped sample not found by parser")
	}
	if s.Labels["note"] != "a\\b\"c\nd" {
		t.Fatalf("escape round-trip: got %q", s.Labels["note"])
	}
}

// TestConformanceGolden is the full conformance golden: counters, gauges,
// and a labeled histogram render grouped, escaped, with cumulative buckets
// ending in +Inf and _count equal to the terminal bucket — and the output
// passes the package's own exposition lint. The FNV-1a 64 digest of the text
// is pinned to what the pre-unification Registry rendered at 0a14f30
// (captured there by adding the three digest lines below and running
// `go test -run TestConformanceGolden -count=1 ./internal/flight`).
func TestConformanceGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`req_seconds{route="/v1/ingest"}`, "request latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)
	r.Histogram(`req_seconds{route="/v1/stats"}`, "request latency", []float64{0.001, 0.01, 0.1}).Observe(0.002)
	r.Counter("req_seconds_total_ops", "op count").Add(4) // prefix family, must not interleave
	r.Gauge("queue_depth", "jobs queued").Set(7)
	got := r.PrometheusText()
	want := `# HELP queue_depth jobs queued
# TYPE queue_depth gauge
queue_depth 7
# HELP req_seconds request latency
# TYPE req_seconds histogram
req_seconds_bucket{route="/v1/ingest",le="0.001"} 1
req_seconds_bucket{route="/v1/ingest",le="0.01"} 1
req_seconds_bucket{route="/v1/ingest",le="0.1"} 2
req_seconds_bucket{route="/v1/ingest",le="+Inf"} 3
req_seconds_sum{route="/v1/ingest"} 3.0505
req_seconds_count{route="/v1/ingest"} 3
req_seconds_bucket{route="/v1/stats",le="0.001"} 0
req_seconds_bucket{route="/v1/stats",le="0.01"} 1
req_seconds_bucket{route="/v1/stats",le="0.1"} 1
req_seconds_bucket{route="/v1/stats",le="+Inf"} 1
req_seconds_sum{route="/v1/stats"} 0.002
req_seconds_count{route="/v1/stats"} 1
# HELP req_seconds_total_ops op count
# TYPE req_seconds_total_ops counter
req_seconds_total_ops 4
`
	if got != want {
		t.Fatalf("conformance golden mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := LintExposition(got); err != nil {
		t.Fatalf("golden output fails lint: %v", err)
	}
	digest := fnv.New64a()
	digest.Write([]byte(got))
	if sum := digest.Sum64(); sum != 0x9d1b874199d0be0e {
		t.Fatalf("golden digest %#016x, pinned 0x9d1b874199d0be0e", sum)
	}
}

// TestLintExpositionCatchesViolations: the linter rejects the defects it
// exists to catch.
func TestLintExpositionCatchesViolations(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"non-cumulative buckets", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`, "not cumulative"},
		{"missing +Inf", `# TYPE h histogram
h_bucket{le="1"} 5
h_sum 1
h_count 5
`, `missing le="+Inf"`},
		{"count mismatch", `# TYPE h histogram
h_bucket{le="+Inf"} 5
h_sum 1
h_count 4
`, "_count 4 != +Inf bucket 5"},
		{"interleaved family", `# TYPE a counter
a 1
# TYPE b counter
b 1
a{x="1"} 2
`, "interleaved"},
		{"negative counter", `# TYPE c counter
c -1
`, "negative"},
		{"bad label escape", `c{x="a\q"} 1
`, "bad escape"},
		{"bad value", `c one
`, "bad value"},
	}
	for _, tc := range cases {
		err := LintExposition(tc.text)
		if err == nil {
			t.Errorf("%s: lint accepted bad exposition", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
	if err := LintExposition(`# HELP ok fine
# TYPE ok counter
ok 1
ok{a="b"} 2
`); err != nil {
		t.Errorf("lint rejected good exposition: %v", err)
	}
}

// TestLiveRegistryParallel hammers every metric type from many goroutines
// (run under -race) and checks the totals are exact.
func TestLiveRegistryParallel(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("depth", "depth")
	h := r.Histogram("lat_seconds", "latency", []float64{0.5, 1.5, 2.5})
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 4)) // buckets 0..3: one value beyond the last edge
				// Concurrent registration of an existing name must be safe
				// and return the same handle.
				if r.Counter("ops_total", "ops") != c {
					panic("duplicate counter")
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Fatalf("counter %v, want %d", got, total)
	}
	if got := g.Value(); got != perWorker-1 {
		t.Fatalf("gauge %v, want %d", got, perWorker-1)
	}
	if got := h.Count(); got != total {
		t.Fatalf("histogram count %d, want %d", got, total)
	}
	_, counts := h.Buckets()
	wantPer := uint64(total / 4)
	for i, n := range counts {
		if n != wantPer {
			t.Fatalf("bucket %d: %d observations, want %d", i, n, wantPer)
		}
	}
	if sum := h.Sum(); sum != float64(total/4*(0+1+2+3)) {
		t.Fatalf("sum %v", sum)
	}
	if err := LintExposition(r.PrometheusText()); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
}

// TestRegistryRenderWhileObserving renders the exposition while 8 goroutines
// observe every metric type and register new series (run under -race):
// every scrape lints clean — in particular each histogram's _count equals
// its +Inf bucket — and no counter renders lower than in an earlier scrape.
func TestRegistryRenderWhileObserving(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("depth", "depth")
	h := r.Histogram(`lat_seconds{route="a"}`, "latency", []float64{0.5, 1.5, 2.5})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 4))
				r.Histogram(SeriesName("lat_seconds", "route", strconv.Itoa(i%16)), "latency", []float64{1}).Observe(float64(w))
			}
		}(w)
	}
	var lastOps float64
	for scrape := 0; scrape < 200; scrape++ {
		text := r.PrometheusText()
		if err := LintExposition(text); err != nil {
			t.Fatalf("scrape %d fails lint: %v\n%s", scrape, err, text)
		}
		exp, err := ParseExposition(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range exp.Family("lat_seconds").Samples {
			if s.Name != "lat_seconds_count" {
				continue
			}
			inf := exp.Sample("lat_seconds_bucket", "route", s.Labels["route"], "le", "+Inf")
			if inf == nil || inf.Value != s.Value {
				t.Fatalf("scrape %d: route %q _count %v != +Inf bucket %+v", scrape, s.Labels["route"], s.Value, inf)
			}
		}
		ops := exp.Sample("ops_total").Value
		if ops < lastOps {
			t.Fatalf("scrape %d: ops_total went backwards: %v after %v", scrape, ops, lastOps)
		}
		lastOps = ops
	}
	close(stop)
	wg.Wait()
}

// TestLiveObservationsAllocationFree: the hot-path observation methods must
// not allocate — the serving plane calls them per request.
func TestLiveObservationsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", []float64{1, 2, 4, 8})
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		h.Observe(3.5)
	}); n != 0 {
		t.Fatalf("observations allocate %v/op, want 0", n)
	}
}

// TestHistogramQuantile pins the bucket-interpolation rule /v1/stats'
// latency fields are read through.
func TestHistogramQuantile(t *testing.T) {
	edges := []float64{1, 2, 4, 8}
	fill := func(vs ...float64) *Histogram {
		h := NewRegistry().Histogram("h", "h", edges)
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want float64
	}{
		{"no samples", fill(), 0.5, 0},
		{"one sample, median is mid-bucket", fill(3), 0.5, 3},
		{"one sample, q=1 is the bucket's upper edge", fill(3), 1, 4},
		{"sample on an edge lands in that edge's bucket", fill(2), 1, 2},
		{"first bucket interpolates from 0", fill(0.5, 0.5), 0.5, 0.5},
		{"all in +Inf reports the last finite edge", fill(9, 100, 1e6), 0.99, 8},
		{"rank crosses into the second bucket", fill(0.5, 1.5, 1.5, 1.5), 0.5, 1 + 1.0/3},
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}

	// Against the exact sample quantile on seeded log-uniform draws over
	// [1e-4, 10): never further off than the width of the bucket the exact
	// value falls in.
	latency := []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	h := NewRegistry().Histogram("lat", "lat", latency)
	rng := rand.New(rand.NewSource(18))
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = math.Pow(10, -4+5*rng.Float64())
		h.Observe(samples[i])
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)-1))]
		i := sort.SearchFloat64s(latency, exact)
		lo := 0.0
		if i > 0 {
			lo = latency[i-1]
		}
		if got := h.Quantile(q); math.Abs(got-exact) > latency[i]-lo {
			t.Errorf("Quantile(%v) = %v, exact %v, bucket (%v, %v]", q, got, exact, lo, latency[i])
		}
	}
}

// TestLiveRecorderRing: the bounded recorder retains the newest events,
// reports evictions, and returns them oldest-first.
func TestLiveRecorderRing(t *testing.T) {
	r := NewLiveRecorder(3, nil)
	for i := 1; i <= 5; i++ {
		ev := Ev(BatchIngested, PlaneServe)
		ev.T = 1
		ev.Count = i
		r.Record(ev)
	}
	if r.Len() != 3 {
		t.Fatalf("ring holds %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", r.Dropped())
	}
	evs := r.Events()
	for i, want := range []int{3, 4, 5} {
		if evs[i].Count != want {
			t.Fatalf("event %d has Count %d, want %d", i, evs[i].Count, want)
		}
	}
	var nilRec *LiveRecorder
	nilRec.Record(Ev(BatchIngested, PlaneServe)) // nil-safe like Recorder
	if nilRec.Len() != 0 || nilRec.Events() != nil || nilRec.Dropped() != 0 {
		t.Fatal("nil LiveRecorder must be inert")
	}
}

// TestParseExpositionValues: +Inf/-Inf/NaN literals and le lookup.
func TestParseExpositionValues(t *testing.T) {
	exp, err := ParseExposition(`up +Inf
down -Inf
odd NaN
`)
	if err != nil {
		t.Fatal(err)
	}
	if s := exp.Sample("up"); s == nil || !math.IsInf(s.Value, +1) {
		t.Fatal("+Inf not parsed")
	}
	if s := exp.Sample("down"); s == nil || !math.IsInf(s.Value, -1) {
		t.Fatal("-Inf not parsed")
	}
	if s := exp.Sample("odd"); s == nil || !math.IsNaN(s.Value) {
		t.Fatal("NaN not parsed")
	}
}
