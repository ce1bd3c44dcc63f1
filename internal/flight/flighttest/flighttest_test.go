package flighttest

import (
	"strings"
	"testing"
)

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
