// Package flighttest holds the test helpers the flight and serve tests
// share: a Prometheus exposition linter on top of flight.ParseExposition
// and small readers for parsed pages and live histograms.
package flighttest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"pythia/internal/flight"
)

// LintExposition parses text and checks semantic conformance on top of
// syntax: counters are non-negative and never carry reserved suffixes;
// every histogram has cumulative non-decreasing buckets per label set,
// a le="+Inf" bucket, and _count equal to the +Inf bucket (and to _sum's
// presence). Returns all problems found, joined.
func LintExposition(text string) error {
	exp, err := flight.ParseExposition(text)
	if err != nil {
		return err
	}
	var problems []string
	for _, fam := range exp.Families {
		switch fam.Type {
		case "counter":
			for _, s := range fam.Samples {
				if s.Value < 0 {
					problems = append(problems, fmt.Sprintf("counter %s has negative value %v", s.Name, s.Value))
				}
				if s.Name != fam.Name {
					problems = append(problems, fmt.Sprintf("counter family %s has sample %s with reserved suffix", fam.Name, s.Name))
				}
			}
		case "histogram":
			problems = append(problems, lintHistogram(fam)...)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("exposition lint: %s", strings.Join(problems, "; "))
	}
	return nil
}

// Family returns the named family of a parsed page, or nil.
func Family(exp *flight.Exposition, name string) *flight.Family {
	for _, f := range exp.Families {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// HistogramCount is the number of observations h holds.
func HistogramCount(h *flight.Histogram) uint64 {
	_, counts := h.Buckets()
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

// labelKey renders a label set minus `le` as a canonical string for grouping
// histogram series.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(',')
	}
	return b.String()
}

func lintHistogram(fam *flight.Family) []string {
	type hist struct {
		buckets []flight.Sample
		sum     *flight.Sample
		count   *flight.Sample
	}
	groups := map[string]*hist{}
	group := func(labels map[string]string) *hist {
		k := labelKey(labels)
		if groups[k] == nil {
			groups[k] = &hist{}
		}
		return groups[k]
	}
	var problems []string
	for i := range fam.Samples {
		s := fam.Samples[i]
		switch s.Name {
		case fam.Name + "_bucket":
			if _, ok := s.Labels["le"]; !ok {
				problems = append(problems, fmt.Sprintf("%s bucket missing le label", fam.Name))
				continue
			}
			g := group(s.Labels)
			g.buckets = append(g.buckets, s)
		case fam.Name + "_sum":
			group(s.Labels).sum = &fam.Samples[i]
		case fam.Name + "_count":
			group(s.Labels).count = &fam.Samples[i]
		default:
			problems = append(problems, fmt.Sprintf("histogram %s has stray sample %s", fam.Name, s.Name))
		}
	}
	for key, g := range groups {
		where := fam.Name
		if key != "" {
			where += "{" + strings.TrimSuffix(key, ",") + "}"
		}
		if len(g.buckets) == 0 {
			problems = append(problems, where+" has no buckets")
			continue
		}
		prevLe := math.Inf(-1)
		prev := -1.0
		sawInf := false
		for _, b := range g.buckets {
			// ParseFloat reads the exposition's +Inf, -Inf and NaN literals.
			le, err := strconv.ParseFloat(b.Labels["le"], 64)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s bad le %q", where, b.Labels["le"]))
				continue
			}
			if le <= prevLe {
				problems = append(problems, fmt.Sprintf("%s buckets not in ascending le order", where))
			}
			prevLe = le
			if b.Value < prev {
				problems = append(problems, fmt.Sprintf("%s buckets not cumulative (le=%q drops to %v)", where, b.Labels["le"], b.Value))
			}
			prev = b.Value
			if math.IsInf(le, +1) {
				sawInf = true
				if g.count != nil && g.count.Value != b.Value {
					problems = append(problems, fmt.Sprintf("%s _count %v != +Inf bucket %v", where, g.count.Value, b.Value))
				}
			}
		}
		if !sawInf {
			problems = append(problems, where+` missing le="+Inf" bucket`)
		}
		if g.count == nil {
			problems = append(problems, where+" missing _count")
		}
		if g.sum == nil {
			problems = append(problems, where+" missing _sum")
		}
	}
	return problems
}
