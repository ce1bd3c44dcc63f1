package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/hadoop"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
	"pythia/internal/workload"
)

// rig builds the paper's two-rack testbed with an ECMP resolver.
func rig(cfg hadoop.Config) (*sim.Engine, *netsim.Network, *hadoop.Cluster) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	return eng, net, hadoop.NewCluster(eng, net, hosts, ecmp.New(g, 2, 1), cfg)
}

func runToy() *Sequence {
	eng, net, cl := rig(hadoop.Config{})
	j, err := cl.Submit(workload.ToySort())
	if err != nil {
		panic(err)
	}
	eng.Run()
	return Of(j, net.History())
}

func TestRecorderCapturesAllSpans(t *testing.T) {
	seq := runToy()
	// 3 map spans + 2 shuffle + 2 reduce.
	var m, s, r int
	for _, sp := range seq.spans {
		switch sp.Kind {
		case MapSpan:
			m++
		case ShuffleSpan:
			s++
		case ReduceSpan:
			r++
		}
		if sp.End < sp.Start {
			t.Fatalf("span %q ends before start", sp.Label)
		}
	}
	if m != 3 || s != 2 || r != 2 {
		t.Fatalf("spans m=%d s=%d r=%d, want 3/2/2", m, s, r)
	}
}

func TestReducerVolumesShowSkew(t *testing.T) {
	vols := runToy().ReducerVolumes()
	// ToySort sends reducer-0 5x reducer-1 (payload); wire overhead is a
	// common factor.
	ratio := vols[0] / vols[1]
	if math.Abs(ratio-5) > 0.01 {
		t.Fatalf("volume ratio = %v, want 5 (Fig. 1a skew)", ratio)
	}
}

func TestFetchRecords(t *testing.T) {
	fs := runToy().fetches
	if len(fs) != 6 { // 3 maps x 2 reducers
		t.Fatalf("fetches = %d, want 6", len(fs))
	}
	for _, f := range fs {
		if f.End < f.Start {
			t.Fatal("fetch ends before start")
		}
		if f.Bytes <= 0 {
			t.Fatal("non-positive fetch volume")
		}
	}
}

func TestRenderASCII(t *testing.T) {
	out := runToy().Render(100)
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"toy-sort", "map-0", "map-2", "reduce-0", "reduce-1", "reducer-0 fetched", "M", "s", "R"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Rows all same width region: every task line has the | separator.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 7 {
		t.Fatalf("only %d lines", len(lines))
	}
}

// TestRenderEmptyBeforeCompletion: an unfinished job has no timeline yet,
// and every renderer of the nil Sequence is empty.
func TestRenderEmptyBeforeCompletion(t *testing.T) {
	_, net, cl := rig(hadoop.Config{})
	j, _ := cl.Submit(workload.ToySort())
	seq := Of(j, net.History())
	if seq != nil {
		t.Fatal("timeline of an unfinished job")
	}
	if seq.Render(100) != "" {
		t.Fatal("render before the job finished")
	}
	if seq.RenderSVG() != "" {
		t.Fatal("svg before the job finished")
	}
}

func TestRenderSVG(t *testing.T) {
	svg := runToy().RenderSVG()
	for _, want := range []string{"<svg", "</svg>", "rect", "toy-sort"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
}

// TestRenderSVGDeterministic: the SVG is byte-identical across renders and
// its row labels follow row order (they were once written in map order).
func TestRenderSVGDeterministic(t *testing.T) {
	seq := runToy()
	first := seq.RenderSVG()
	for i := 0; i < 20; i++ {
		if got := seq.RenderSVG(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	want := []string{"map-0", "map-1", "map-2", "reduce-0", "reduce-1"}
	var got []string
	for _, part := range strings.Split(first, `font-size="12">`)[1:] {
		got = append(got, part[:strings.Index(part, "<")])
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("row labels %v, want %v", got, want)
	}
}

// TestRendersTheJobItIsGiven: two jobs share the cluster and the flow
// history; the second job's timeline holds its own task spans and only its
// own 6 fetches.
func TestRendersTheJobItIsGiven(t *testing.T) {
	eng, net, cl := rig(hadoop.Config{})
	j1, _ := cl.Submit(workload.ToySort())
	j2, _ := cl.Submit(workload.ToySort())
	eng.Run()
	if len(net.History()) != 12 {
		t.Fatalf("history holds %d flows, want 12", len(net.History()))
	}
	if j1.Maps[0].Tracker == j2.Maps[0].Tracker {
		t.Fatal("both jobs ran map-0 on one tracker; the test cannot tell them apart")
	}
	seq := Of(j2, net.History())
	if len(seq.fetches) != 6 {
		t.Fatalf("fetches = %d, want 6 (second job only)", len(seq.fetches))
	}
	want := map[string]Span{}
	for _, m := range j2.Maps {
		l := fmt.Sprintf("map-%d", m.ID)
		want[l] = Span{Label: l, Host: m.Tracker, Start: m.Scheduled, End: m.Finished, Kind: MapSpan}
	}
	for _, r := range j2.Reduces {
		l := fmt.Sprintf("reduce-%d", r.ID)
		want["s"+l] = Span{Label: l, Host: r.Tracker, Start: r.Scheduled, End: r.ShuffleDone, Kind: ShuffleSpan}
		want["r"+l] = Span{Label: l, Host: r.Tracker, Start: r.ShuffleDone, End: r.Finished, Kind: ReduceSpan}
	}
	if len(seq.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(seq.spans), len(want))
	}
	for _, sp := range seq.spans {
		key := sp.Label
		switch sp.Kind {
		case ShuffleSpan:
			key = "s" + key
		case ReduceSpan:
			key = "r" + key
		}
		if sp != want[key] {
			t.Fatalf("span %+v, want job 2's %+v", sp, want[key])
		}
	}
}

// TestOneSpanPerMapUnderSpeculation: a losing speculative attempt that
// still finishes adds no second span; each map is drawn once, ending when
// its winning attempt finished.
func TestOneSpanPerMapUnderSpeculation(t *testing.T) {
	eng, net, cl := rig(hadoop.Config{Speculative: true, SpeculativeLagFactor: 1.1})
	j, _ := cl.Submit(workload.Sort(2e9, 6, 1))
	eng.Run()
	if cl.SpeculativeLaunched == 0 {
		t.Fatal("no speculative attempt launched; the test exercises nothing")
	}
	finished := map[string]sim.Time{}
	for _, m := range j.Maps {
		finished[fmt.Sprintf("map-%d", m.ID)] = m.Finished
	}
	n := 0
	for _, sp := range Of(j, net.History()).spans {
		if sp.Kind != MapSpan {
			continue
		}
		n++
		if sp.End != finished[sp.Label] {
			t.Fatalf("%s ends at %v, the map finished at %v", sp.Label, sp.End, finished[sp.Label])
		}
	}
	if n != len(j.Maps) {
		t.Fatalf("%d map spans for %d maps", n, len(j.Maps))
	}
}

func TestShuffleSpanPrecedesReduceSpan(t *testing.T) {
	shufEnd := map[string]sim.Time{}
	redStart := map[string]sim.Time{}
	for _, s := range runToy().spans {
		switch s.Kind {
		case ShuffleSpan:
			shufEnd[s.Label] = s.End
		case ReduceSpan:
			redStart[s.Label] = s.Start
		}
	}
	for label, e := range shufEnd {
		if redStart[label] != e {
			t.Fatalf("%s: reduce starts at %v, shuffle ended %v", label, redStart[label], e)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	raw, err := runToy().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TsUs  float64 `json:"ts"`
			DurUs float64 `json:"dur"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	cats := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			t.Fatalf("non-complete event %q", e.Phase)
		}
		if e.TsUs < 0 || e.DurUs < 0 {
			t.Fatalf("negative timing in %q", e.Name)
		}
		cats[e.Cat]++
	}
	if cats["map"] != 3 || cats["shuffle"] != 2 || cats["reduce"] != 2 {
		t.Fatalf("categories: %v", cats)
	}
	if cats["fetch"] != 6 {
		t.Fatalf("fetch events = %d, want 6", cats["fetch"])
	}
}

func TestChromeTraceEmptyBeforeJob(t *testing.T) {
	_, net, cl := rig(hadoop.Config{})
	j, _ := cl.Submit(workload.ToySort())
	raw, err := Of(j, net.History()).ChromeTrace()
	if err != nil || raw != nil {
		t.Fatalf("expected nil trace, got %v / %v", raw, err)
	}
}
