package pythia

import (
	"hash/fnv"
	"regexp"
	"strings"
	"testing"

	"pythia/internal/bench"
)

// Sequence-view pins: the Fig. 1a renderings and the facade's Chrome traces
// hash (FNV-1a 64) to the values they had at d956d30, when a hook-driven
// recorder built them instead of the finished job and the fabric's flow
// history. Captured by copying this file into a checkout of d956d30,
// making pinnedCluster append that commit's sequence-recording option to
// opts (the views rendered nothing without it there), and running
//
//	go test -run TestSequenceViewPins -count=1 .
//
// whose failure messages print the digests.

// pinnedCluster builds the cluster a pinned view is rendered from.
func pinnedCluster(opts ...Option) *Cluster { return New(opts...) }

// svgText matches the SVG's <text> elements, whose order was map order
// before the row labels were written in row order; the SVG pin excludes them.
var svgText = regexp.MustCompile(`<text[^>]*>[^<]*</text>`)

func TestSequenceViewPins(t *testing.T) {
	mustBytes := func(b []byte, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name   string
		want   uint64
		render func() string
	}{
		{"fig1a-ascii", 0x9a361e7b211e1a61, func() string { a, _ := bench.RunFig1a(); return a }},
		{"fig1a-svg-without-text", 0xfeb2a456055faa7b, func() string {
			_, svg := bench.RunFig1a()
			return svgText.ReplaceAllString(svg, "")
		}},
		{"toy-chrome", 0x1c986de6adae419d, func() string {
			cl := pinnedCluster(WithSeed(1))
			cl.RunJob(ToySortJob())
			return mustBytes(cl.ChromeTrace())
		}},
		{"observability-merged-chrome", 0x6f41c1bd9ef23dbf, func() string {
			// examples/observability's configuration.
			cl := pinnedCluster(WithScheduler(SchedulerPythia), WithOversubscription(10), WithFlightRecorder())
			cl.RunJob(SortJob(8*GB, 8, 3))
			return mustBytes(cl.MergedChromeTrace())
		}},
		{"empty-reducer-ascii", 0x0a699e66ba3209bc, func() string {
			cl := pinnedCluster(WithSeed(1))
			cl.RunJob(emptyReducerJob())
			out := cl.SequenceDiagram(100)
			if !strings.Contains(out, "reducer-1 fetched 0.0 MB") {
				t.Errorf("all-empty reducer missing from the volume table:\n%s", out)
			}
			return out
		}},
	}
	for _, c := range cases {
		h := fnv.New64a()
		h.Write([]byte(c.render()))
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s digest %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
}

// emptyReducerJob is the toy sort with every partition of reducer-1 empty:
// reducer-1 moves no flow at all.
func emptyReducerJob() *JobSpec {
	spec := ToySortJob()
	spec.Name = "toy-sort-empty-reducer"
	for _, row := range spec.MapOutputs {
		row[1] = 0
	}
	return spec
}
