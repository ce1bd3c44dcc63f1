// Package trace renders a MapReduce job's execution as sequence (Gantt)
// diagrams — the "custom visualization tool" the paper used to produce
// Fig. 1a, where the map, shuffle and reduce phases of a toy sort job are
// annotated and the 5x reducer skew is visible in the per-reducer fetch
// volumes. The timeline is read after the fact from the finished job's own
// task records and the fabric's flow history, so any job can be rendered.
// Output is ASCII (deterministic and diffable) plus an SVG writer for
// reports.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"pythia/internal/hadoop"
	"pythia/internal/netsim"
	"pythia/internal/sim"
)

// Span is one task's timeline segment.
type Span struct {
	Label string
	Host  int // tracker index
	Start sim.Time
	End   sim.Time
	Kind  SpanKind
}

// SpanKind classifies a span for rendering.
type SpanKind int

const (
	// MapSpan covers a map task's compute.
	MapSpan SpanKind = iota
	// ShuffleSpan covers a reducer's fetch phase.
	ShuffleSpan
	// ReduceSpan covers a reducer's compute after the shuffle barrier.
	ReduceSpan
)

func (k SpanKind) glyph() byte {
	switch k {
	case MapSpan:
		return 'M'
	case ShuffleSpan:
		return 's'
	case ReduceSpan:
		return 'R'
	}
	return '?'
}

// FetchRecord is one shuffle transfer.
type FetchRecord struct {
	Map, Reduce int
	Bytes       float64
	Start, End  sim.Time
	Remote      bool
}

// Sequence is one finished job's timeline: its task spans, sorted by
// (kind, label), and its shuffle fetches in completion order.
type Sequence struct {
	job     *hadoop.Job
	spans   []Span
	fetches []FetchRecord
}

// Of builds the timeline of a finished job from its task records and the
// fabric's completed flows (netsim.Network.History, in completion order);
// flows of other jobs are skipped. It returns nil while the
// job is unfinished, and every renderer of a nil Sequence returns empty
// output.
func Of(job *hadoop.Job, flows []*netsim.Flow) *Sequence {
	if job == nil || !job.Done {
		return nil
	}
	s := &Sequence{job: job}
	for _, m := range job.Maps {
		s.spans = append(s.spans, Span{
			Label: fmt.Sprintf("map-%d", m.ID), Host: m.Tracker,
			Start: m.Scheduled, End: m.Finished, Kind: MapSpan,
		})
	}
	for _, red := range job.Reduces {
		s.spans = append(s.spans,
			Span{Label: fmt.Sprintf("reduce-%d", red.ID), Host: red.Tracker,
				Start: red.Scheduled, End: red.ShuffleDone, Kind: ShuffleSpan},
			Span{Label: fmt.Sprintf("reduce-%d", red.ID), Host: red.Tracker,
				Start: red.ShuffleDone, End: red.Finished, Kind: ReduceSpan},
		)
	}
	sort.Slice(s.spans, func(i, j int) bool {
		a, b := s.spans[i], s.spans[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Start < b.Start
	})
	for _, f := range flows {
		if f.Job != job.ID {
			continue
		}
		s.fetches = append(s.fetches, FetchRecord{
			Map: f.Map, Reduce: f.Reduce, Bytes: f.SizeBits / 8,
			Start: f.Started(), End: f.Finished(), Remote: len(f.Path.Links) > 0,
		})
	}
	return s
}

// ReducerVolumes sums fetched bytes per reducer, indexed by reducer ID —
// the skew annotation of Fig. 1a. A reducer whose partitions are all empty
// reads 0.
func (s *Sequence) ReducerVolumes() []float64 {
	v := make([]float64, len(s.job.Reduces))
	for _, f := range s.fetches {
		v[f.Reduce] += f.Bytes
	}
	return v
}

// Render draws the ASCII sequence diagram, width columns wide. It returns
// an empty string for a nil Sequence.
func (s *Sequence) Render(width int) string {
	if s == nil || width < 40 {
		return ""
	}
	t0 := s.job.Submitted
	t1 := s.job.Finished
	total := float64(t1.Sub(t0))
	if total <= 0 {
		return ""
	}
	labelW := 0
	rows := map[string][]Span{}
	var order []string
	for _, sp := range s.spans {
		if len(sp.Label) > labelW {
			labelW = len(sp.Label)
		}
		if _, ok := rows[sp.Label]; !ok {
			order = append(order, sp.Label)
		}
		rows[sp.Label] = append(rows[sp.Label], sp)
	}
	barW := width - labelW - 2
	if barW < 10 {
		barW = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d maps, %d reduces, %.1fs total\n",
		s.job.Spec.Name, s.job.Spec.NumMaps, s.job.Spec.NumReduces, total)
	fmt.Fprintf(&b, "phases: M=map s=shuffle R=reduce; maps done %.1fs, shuffle done %.1fs\n",
		float64(s.job.MapPhaseEnd.Sub(t0)), float64(s.job.ShuffleEnd.Sub(t0)))
	for _, label := range order {
		line := make([]byte, barW)
		for i := range line {
			line[i] = '.'
		}
		for _, sp := range rows[label] {
			from := int(float64(sp.Start.Sub(t0)) / total * float64(barW))
			to := int(float64(sp.End.Sub(t0)) / total * float64(barW))
			if to >= barW {
				to = barW - 1
			}
			if from > to {
				from = to
			}
			for i := from; i <= to; i++ {
				line[i] = sp.Kind.glyph()
			}
		}
		fmt.Fprintf(&b, "%-*s |%s\n", labelW, label, line)
	}
	// Skew annotation, as in Fig. 1a's discussion.
	for rid, v := range s.ReducerVolumes() {
		fmt.Fprintf(&b, "reducer-%d fetched %.1f MB\n", rid, v/1e6)
	}
	return b.String()
}

// RenderSVG draws the same diagram as a standalone SVG document. It returns
// an empty string for a nil Sequence.
func (s *Sequence) RenderSVG() string {
	if s == nil {
		return ""
	}
	const (
		w        = 900
		rowH     = 22
		leftPad  = 120
		topPad   = 40
		rightPad = 20
	)
	rows := map[string]int{}
	var order []string
	for _, sp := range s.spans {
		if _, ok := rows[sp.Label]; !ok {
			rows[sp.Label] = len(order)
			order = append(order, sp.Label)
		}
	}
	t0, t1 := s.job.Submitted, s.job.Finished
	total := float64(t1.Sub(t0))
	h := topPad + rowH*len(order) + 30
	scale := float64(w-leftPad-rightPad) / total
	colors := map[SpanKind]string{MapSpan: "#4e79a7", ShuffleSpan: "#f28e2b", ReduceSpan: "#59a14f"}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`, w, h)
	fmt.Fprintf(&b, `<text x="10" y="20" font-family="monospace" font-size="14">%s: %.1fs (map | shuffle | reduce)</text>`,
		s.job.Spec.Name, total)
	for _, sp := range s.spans {
		y := topPad + rows[sp.Label]*rowH
		x := leftPad + float64(sp.Start.Sub(t0))*scale
		sw := float64(sp.End.Sub(sp.Start)) * scale
		if sw < 1 {
			sw = 1
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"/>`,
			x, y, sw, rowH-6, colors[sp.Kind])
	}
	for idx, label := range order {
		fmt.Fprintf(&b, `<text x="6" y="%d" font-family="monospace" font-size="12">%s</text>`,
			topPad+idx*rowH+12, label)
	}
	b.WriteString(`</svg>`)
	return b.String()
}
