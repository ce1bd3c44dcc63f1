package flight

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is a small, dependency-free Prometheus text exposition parser.
// The benchmark reads the server's /metrics through it; the Registry
// conformance tests and the serve-plane end-to-end test parse and lint
// (flighttest.LintExposition) every page they scrape.

// Sample is one parsed exposition sample line.
type Sample struct {
	Name   string            // full sample name, including _bucket/_sum/_count suffixes
	Labels map[string]string // nil when the sample has no labels
	Value  float64
}

// Family is one parsed metric family: its HELP/TYPE headers and samples in
// file order.
type Family struct {
	Name    string
	Type    string // counter | gauge | histogram | summary | untyped
	Help    string
	Samples []Sample
}

// Exposition is a parsed exposition page, families in file order.
type Exposition struct {
	Families []*Family
	byName   map[string]*Family
}

// Sample returns the first sample with the given full name and a label set
// containing every given key/value pair, or nil. kv is alternating
// key/value.
func (e *Exposition) Sample(name string, kv ...string) *Sample {
	fam := e.byName[familyOf(name)]
	if fam == nil {
		return nil
	}
	for i := range fam.Samples {
		s := &fam.Samples[i]
		if s.Name != name {
			continue
		}
		ok := true
		for j := 0; j+1 < len(kv); j += 2 {
			if s.Labels[kv[j]] != kv[j+1] {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return nil
}

// familyOf strips the histogram/summary sample suffixes from a full sample
// name, yielding the family name the sample belongs to.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// parseLabels parses `k="v",k2="v2"` (the text between braces), handling
// \\, \", and \n escapes in values.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair %q missing '='", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validLabelName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = strings.TrimSpace(s[eq+1:])
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for {
			if i >= len(s) {
				return nil, fmt.Errorf("label %q value not terminated", key)
			}
			c := s[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %q value ends mid-escape", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %q bad escape \\%c", key, s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[key]; dup {
			return nil, fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val.String()
		s = strings.TrimSpace(s[i+1:])
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("expected ',' between label pairs, got %q", s)
			}
			s = strings.TrimSpace(s[1:])
		}
	}
	return labels, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// ParseExposition parses a Prometheus text exposition page, enforcing
// syntax: valid metric and label names, quoted and escaped label values,
// parseable sample values, TYPE headers naming known types, and each family
// contiguous (a family may not resume after another family's lines).
func ParseExposition(text string) (*Exposition, error) {
	exp := &Exposition{byName: map[string]*Family{}}
	var cur *Family
	closed := map[string]bool{} // families whose block has ended
	family := func(name string) *Family {
		if cur == nil || cur.Name != name {
			if cur != nil {
				closed[cur.Name] = true
			}
			if f, ok := exp.byName[name]; ok {
				cur = f // interleaving; caught by the closed check below
				return f
			}
			f := &Family{Name: name, Type: "untyped"}
			exp.byName[name] = f
			exp.Families = append(exp.Families, f)
			cur = f
		}
		return cur
	}
	for lineNo, line := range strings.Split(text, "\n") {
		loc := func(format string, args ...any) error {
			return fmt.Errorf("exposition line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				continue // arbitrary comment
			}
			name := parts[2]
			if !validMetricName(name) {
				return nil, loc("invalid metric name %q in %s header", name, parts[1])
			}
			if closed[name] {
				return nil, loc("family %q interleaved: header after another family began", name)
			}
			f := family(name)
			if parts[1] == "HELP" {
				if len(parts) == 4 {
					f.Help = parts[3]
				}
			} else {
				if len(parts) != 4 {
					return nil, loc("TYPE header for %q missing type", name)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.Type = parts[3]
				default:
					return nil, loc("unknown TYPE %q for %q", parts[3], name)
				}
				if len(f.Samples) > 0 {
					return nil, loc("TYPE header for %q after its samples", name)
				}
			}
			continue
		}
		// Sample line: name[{labels}] value [timestamp]
		var name, rest string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			end := strings.LastIndexByte(line, '}')
			if end < i {
				return nil, loc("unterminated label braces")
			}
			labels, err := parseLabels(line[i+1 : end])
			if err != nil {
				return nil, loc("%v", err)
			}
			rest = strings.TrimSpace(line[end+1:])
			if !validMetricName(name) {
				return nil, loc("invalid metric name %q", name)
			}
			fname := familyOf(name)
			if closed[fname] {
				return nil, loc("family %q interleaved: sample after another family began", fname)
			}
			v, err := sampleValue(rest)
			if err != nil {
				return nil, loc("%v", err)
			}
			family(fname).Samples = append(family(fname).Samples, Sample{Name: name, Labels: labels, Value: v})
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, loc("sample missing value")
		}
		name = fields[0]
		if !validMetricName(name) {
			return nil, loc("invalid metric name %q", name)
		}
		fname := familyOf(name)
		if closed[fname] {
			return nil, loc("family %q interleaved: sample after another family began", fname)
		}
		v, err := parseValue(fields[1])
		if err != nil {
			return nil, loc("bad value %q: %v", fields[1], err)
		}
		family(fname).Samples = append(family(fname).Samples, Sample{Name: name, Value: v})
	}
	return exp, nil
}

func sampleValue(rest string) (float64, error) {
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return 0, fmt.Errorf("sample missing value")
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	return v, nil
}
