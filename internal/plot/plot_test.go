package plot

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBarChartRender(t *testing.T) {
	c := BarChart{
		Title:  "Fig3",
		YLabel: "seconds",
		Series: []string{"ECMP", "Pythia"},
		Groups: []BarGroup{
			{Label: "none", Values: []float64{100, 98}},
			{Label: "1:20", Values: []float64{220, 150}},
		},
		Line:      []float64{0.02, 0.46},
		LineLabel: "speedup",
		LinePct:   true,
	}
	svg := c.Render()
	// Right axis tops out at niceCeil(0.46)=0.5 → "50%" tick.
	for _, want := range []string{"<svg", "</svg>", "Fig3", "ECMP", "Pythia", "polyline", "none", "1:20", "50%"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("bar chart missing %q", want)
		}
	}
	if n := strings.Count(svg, "<rect"); n < 4 {
		t.Fatalf("only %d rects", n)
	}
}

func TestBarChartEmpty(t *testing.T) {
	if (BarChart{}).Render() != "" {
		t.Fatal("empty chart rendered")
	}
	if (BarChart{Series: []string{"a"}}).Render() != "" {
		t.Fatal("chart without groups rendered")
	}
}

func TestLineChartRender(t *testing.T) {
	c := LineChart{
		Title:  "Fig5",
		XLabel: "time (s)",
		YLabel: "bytes",
		Series: []LineSeries{
			{Name: "predicted", X: []float64{0, 10, 20}, Y: []float64{0, 5e8, 1e9}, Step: true},
			{Name: "measured", X: []float64{0, 15, 30}, Y: []float64{0, 4e8, 1e9}},
		},
	}
	svg := c.Render()
	for _, want := range []string{"<svg", "predicted", "measured", "polyline", "time (s)"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("line chart missing %q", want)
		}
	}
}

func TestLineChartEmpty(t *testing.T) {
	if (LineChart{}).Render() != "" {
		t.Fatal("empty line chart rendered")
	}
	if (LineChart{Series: []LineSeries{{Name: "z"}}}).Render() != "" {
		t.Fatal("zero-extent chart rendered")
	}
}

func TestNiceCeil(t *testing.T) {
	cases := map[float64]float64{
		0.3: 0.5, 1: 1, 1.2: 2, 3: 5, 7: 10, 42: 50, 99: 100, 101: 200,
	}
	for in, want := range cases {
		if got := niceCeil(in); got != want {
			t.Errorf("niceCeil(%v) = %v, want %v", in, got, want)
		}
	}
	if niceCeil(-1) != 1 || niceCeil(0) != 1 {
		t.Error("niceCeil non-positive")
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{5: "5", 1500: "1.5k", 2.5e6: "2.5M", 3e9: "3.0G"}
	for in, want := range cases {
		if got := fmtTick(in); got != want {
			t.Errorf("fmtTick(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: any chart with positive values renders well-formed SVG
// bracketing and never emits NaN coordinates.
func TestPropertyBarChartWellFormed(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 || len(vals) > 12 {
			return true
		}
		groups := make([]BarGroup, len(vals))
		for i, v := range vals {
			groups[i] = BarGroup{Label: "g", Values: []float64{float64(v) + 1}}
		}
		svg := BarChart{Title: "p", Series: []string{"s"}, Groups: groups}.Render()
		return strings.HasPrefix(svg, "<svg") && strings.HasSuffix(svg, "</svg>") &&
			!strings.Contains(svg, "NaN")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
