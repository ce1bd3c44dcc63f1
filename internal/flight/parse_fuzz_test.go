package flight

import (
	"math"
	"testing"
)

// FuzzParseExposition: the benchmark reads /metrics through ParseExposition,
// so arbitrary text must never panic it, and a page it accepts must hold
// every sample under the family its name belongs to, findable by Sample.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	h := r.Histogram(`req_seconds{route="/v1/ingest"}`, "request latency", []float64{0.001, 0.01})
	h.Observe(0.005)
	h.Observe(math.Inf(1))
	r.Counter(SeriesName("paths", "note", "a\\b\"c\nd"), "escapes").Inc()
	r.Gauge("queue_depth", "jobs queued").Set(-7)
	f.Add(r.PrometheusText())
	f.Add("")
	f.Add("# TYPE a counter\na 1\n# TYPE b counter\nb 1\na{x=\"1\"} 2\n")
	f.Add("up +Inf\ndown -Inf\nodd NaN\n")
	f.Add("c{x=\"a\\q\"} 1\n")
	f.Add("h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3 1700000000\n# HELP h\n")
	f.Fuzz(func(t *testing.T, text string) {
		exp, err := ParseExposition(text)
		if err != nil {
			return
		}
		for _, fam := range exp.Families {
			for _, s := range fam.Samples {
				if familyOf(s.Name) != fam.Name {
					t.Fatalf("sample %q filed under family %q", s.Name, fam.Name)
				}
				if exp.Sample(s.Name) == nil {
					t.Fatalf("sample %q not found by name", s.Name)
				}
			}
		}
	})
}
