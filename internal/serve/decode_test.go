package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pythia/internal/workload"
)

// oracleIngest is the encoding/json ingest decoder the hand-written one
// replaced, with the same validation: a Decoder with unknown fields
// disallowed, whose trailing-data check is Decoder.More.
func oracleIngest(body []byte, numHosts, maxOps int) (*IngestRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("malformed request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("malformed request: trailing data after JSON object")
	}
	if err := req.validate(numHosts, maxOps); err != nil {
		return nil, err
	}
	return &req, nil
}

// oracleBatch is the encoding/json journal decoder (json.Unmarshal) with
// unknown fields disallowed, as they now are, and one stated exception: a
// record whose ops is not null, the retired ops form, is refused.
func oracleBatch(p []byte) (*WireBatch, error) {
	dec := json.NewDecoder(bytes.NewReader(p))
	dec.DisallowUnknownFields()
	b := new(WireBatch)
	if err := dec.Decode(b); err != nil {
		return nil, err
	}
	if len(bytes.TrimLeft(p[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("trailing data")
	}
	if b.Ops != nil {
		return nil, fmt.Errorf("ops-form record")
	}
	return b, nil
}

// tightening names the input property for which the decoder rejects a
// document encoding/json accepts — "trailing bytes", "duplicate key" or
// "null element" — or "" if the input has none. It walks the document with
// json.Decoder.Token, independently of both decoders.
func tightening(data []byte) string {
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		obj     bool
		wantKey bool
		keys    []string
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if key, ok := tok.(string); ok && top != nil && top.obj && top.wantKey {
			for _, k := range top.keys {
				if strings.EqualFold(k, key) {
					return "duplicate key"
				}
			}
			top.keys = append(top.keys, key)
			top.wantKey = false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{obj: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		case nil:
			if top != nil && !top.obj {
				return "null element"
			}
		}
		// A value ended.
		if len(stack) == 0 {
			if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
				return "trailing bytes"
			}
			return ""
		}
		if t := stack[len(stack)-1]; t.obj {
			t.wantKey = true
		}
	}
}

// sameDecoded reports whether two decoded values are equal with every
// float bit for bit (reflect.DeepEqual alone takes -0 for 0).
func sameDecoded(a, b any) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}

// sampleRequest builds an n-op request the way the benchmark's generator
// does: jobs from the open-loop population (seed 1), each contributing up
// to two reducer placements, five intents carrying its map-output
// predictions, and its retirement.
func sampleRequest(n int) *IngestRequest {
	stream := workload.OpenLoop(workload.OpenLoopConfig{BaseRateJobsPerSec: 0.2, Seed: 1})
	req := &IngestRequest{}
	for job := 0; req.ops() < n; job++ {
		spec := stream.Next().Spec
		for r := 0; r < spec.NumReduces && r < 2 && req.ops() < n; r++ {
			req.Reducers = append(req.Reducers, WireReducerUp{Job: job, Reduce: r, Host: (job + r) % 8})
		}
		for m := 0; m < spec.NumMaps && m < 5 && req.ops() < n; m++ {
			req.Intents = append(req.Intents, WireIntent{Job: job, Map: m, SrcHost: (job + m) % 8,
				PredictedWireBytes: spec.MapOutputs[m]})
		}
		if req.ops() < n {
			req.DoneJobs = append(req.DoneJobs, job)
		}
	}
	return req
}

// sampleRecord journals sampleRequest(n) as the batch loop does: its body,
// framed alone as a request-form record.
func sampleRecord(t testing.TB, n int) (*IngestRequest, []byte) {
	req := sampleRequest(n)
	return req, bodyRecord(t, 1234.5678901234567, mustMarshal(t, req))
}

func mustMarshal(t testing.TB, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireTightenings: documents the encoding/json decoders accepted and
// the hand-written one refuses, each with the property tightening finds.
func TestWireTightenings(t *testing.T) {
	cases := []struct {
		name, body   string
		journal      bool // a journal record rather than an ingest body
		wantErr      string
		wantProperty string
	}{
		{"trailing closers", `{"done_jobs":[1]}]]garbage`, false, "trailing data", "trailing bytes"},
		{"trailing closer after whitespace", "{\"done_jobs\":[1]}\n}", false, "trailing data", "trailing bytes"},
		{"repeated key merges element-wise",
			`{"intents":[{"job":1,"map":2,"src_host":0,"predicted_wire_bytes":[5]}],"intents":[{"job":3}]}`,
			false, "duplicate key", "duplicate key"},
		{"repeated key after case folding", `{"done_jobs":[1],"DONE_JOBS":[2]}`, false, "duplicate key", "duplicate key"},
		{"null reducer", `{"reducers":[null]}`, false, "null array element", "null element"},
		{"null byte prediction", `{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[null]}]}`,
			false, "null array element", "null element"},
		{"null done job", `{"done_jobs":[null]}`, false, "null array element", "null element"},
		{"journal record with an unknown key", `{"virtual_sec":1,"requests":[{"done_jobs":[4]}],"bogus":1}`,
			true, "unknown field", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err, oerr error
			if tc.journal {
				_, err = decodeBatch([]byte(tc.body))
				// The parent read records with plain json.Unmarshal.
				var b WireBatch
				oerr = json.Unmarshal([]byte(tc.body), &b)
			} else {
				_, _, err = decodeIngest(strings.NewReader(tc.body), 8, 0, false)
				_, oerr = oracleIngest([]byte(tc.body), 8, 0)
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
			}
			if oerr != nil {
				t.Fatalf("encoding/json rejects it too (%v): not a tightening", oerr)
			}
			if got := tightening([]byte(tc.body)); got != tc.wantProperty {
				t.Fatalf("tightening = %q, want %q", got, tc.wantProperty)
			}
		})
	}
}

// TestDecoderFieldTablesMatchTags: the decoder's key tables are the json
// tags of the wire types, in field order.
func TestDecoderFieldTablesMatchTags(t *testing.T) {
	for _, tc := range []struct {
		v     any
		names []string
	}{
		{IngestRequest{}, ingestFields},
		{WireIntent{}, intentFields},
		{WireReducerUp{}, reducerFields},
		{WireBatch{}, batchFields},
	} {
		rt := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < rt.NumField(); i++ {
			tags = append(tags, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, tc.names) {
			t.Errorf("%s: tags %v, decoder table %v", rt.Name(), tags, tc.names)
		}
	}
}

// TestDecodeAllocs pins the decoder's allocations on a 64-op body and on
// the same body journaled as a request-form record: one byte-prediction
// slice per intent, plus the request (batch), and one exact-length array
// per list — the body's three lists, and for the record its requests array
// too.
func TestDecodeAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops decoders at random")
	}
	req, record := sampleRecord(t, 64)
	body := mustMarshal(t, req)
	r := bytes.NewReader(body)
	got := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if _, _, err := decodeIngest(r, 8, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	if want := len(req.Intents) + 4; got != float64(want) {
		t.Errorf("decodeIngest: %v allocs per %d-intent body, want %d", got, len(req.Intents), want)
	}
	got = testing.AllocsPerRun(100, func() {
		if _, err := decodeBatch(record); err != nil {
			t.Fatal(err)
		}
	})
	if want := len(req.Intents) + 5; got != float64(want) {
		t.Errorf("decodeBatch: %v allocs per %d-intent request-form record, want %d", got, len(req.Intents), want)
	}
}

// TestDecodedValuesShareNoBacking: every intent's byte predictions are a
// slice of their own, so a deferred intent the collector keeps pins no
// sibling's.
func TestDecodedValuesShareNoBacking(t *testing.T) {
	req := sampleRequest(64)
	body := mustMarshal(t, req)
	got, _, err := decodeIngest(bytes.NewReader(body), 8, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := decodeBatch(bodyRecord(t, 1, body, body))
	if err != nil {
		t.Fatal(err)
	}
	var all [][]float64
	for _, in := range got.Intents {
		all = append(all, in.PredictedWireBytes)
	}
	for _, r := range rb.Requests {
		for _, in := range r.Intents {
			all = append(all, in.PredictedWireBytes)
		}
	}
	for i, s := range all {
		if len(s) != cap(s) {
			t.Errorf("slice %d: len %d cap %d", i, len(s), cap(s))
		}
		for j := i + 1; j < len(all); j++ {
			if &s[0] == &all[j][0] || (&s[len(s)-1] == &all[j][len(all[j])-1]) {
				t.Errorf("slices %d and %d share backing", i, j)
			}
		}
	}
}

// ingestSeeds are the golden vector, TestWireRejections' bodies, the
// tightenings, escaped or case-folded keys, and the number converter's
// edges.
var ingestSeeds = append([]string{
	goldenIngest,
	`{"intents": [`,
	`{"done_jobs":[1]} {"done_jobs":[2]}`,
	`{"done_jobs":[1],"bogus":true}`,
	`{}`,
	`{"intents":[{"job":-1,"map":0,"src_host":0,"predicted_wire_bytes":[1]}]}`,
	`{"reducers":[{"job":0,"reduce":0,"host":8}]}`,
	`{"intents":[{"job":0,"map":0,"src_host":-1,"predicted_wire_bytes":[1]}]}`,
	`{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[]}]}`,
	`{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[-5]}]}`,
	`{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[1e999]}]}`,
	`{"done_jobs":[-2]}`,
	`{"done_jobs":[1,2,3]}`,
	`{"done_jobs":[1]}]]garbage`,
	`{"intents":[{"job":1,"map":2,"src_host":0,"predicted_wire_bytes":[5]}],"intents":[{"job":3}]}`,
	`{"reducers":[null]}`,
	`{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[null, -0, 0.1e-2]}]}`,
	`{"intents":[{"job":1,"JOB":2,"map":0,"ſrc_host":3,"predicted_wire_bytes":[1E3]}]}`,
	`{"Intents":[{"job":1,"MAP":0,"ſrc_host":3,"predicted_wire_bytes":[1e3,2.5]}],"dOne_jobs":[7]}`,
	`{"reducers":[{"job":9223372036854775807,"reduce":0,"host":1}],"done_jobs":[9223372036854775808]}`,
	`{"reducers":[{"job":1.0,"reduce":0,"host":1}]}`,
	`null`,
	"\t{\"done_jobs\" : [ 1 , 2 ] }\r\n",
}, numberSeeds(false)...)

func FuzzDecodeIngest(f *testing.F) {
	for _, s := range ingestSeeds {
		f.Add([]byte(s))
	}
	f.Add(mustMarshal(f, sampleRequest(64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, err := decodeIngest(bytes.NewReader(data), 8, 0, false)
		want, oerr := oracleIngest(data, 8, 0)
		switch {
		case err == nil && oerr != nil:
			t.Fatalf("accepted what encoding/json rejects (%v): %q", oerr, data)
		case err == nil && !sameDecoded(got, want):
			t.Fatalf("decoded %+v, encoding/json %+v: %q", got, want, data)
		case err != nil && oerr == nil:
			if tightening(data) == "" {
				t.Fatalf("rejected (%v) what encoding/json accepts, with no named tightening: %q", err, data)
			}
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	// Request-form records as the batch loop frames them: the sample body
	// (at the sample clock and at 1e21), and bodies the handler accepts
	// verbatim — whitespace-padded, with escaped and case-folded keys, an
	// explicit null list — then hand-written records, among them one
	// holding both forms, and ops-form records, which the decoder refuses.
	req, record := sampleRecord(f, 64)
	f.Add(record)
	f.Add(bodyRecord(f, 1e21, mustMarshal(f, req)))
	f.Add(bodyRecord(f, 0.25, []byte(goldenIngest), []byte("\t{\"done_jobs\" : [ 1 , 2 ] }\r\n")))
	f.Add(bodyRecord(f, 3e-7,
		[]byte(`{"\u0069ntents":[{"jo\u0062":1,"MAP":0,"ſrc_host":3,"predicted_wire_bytes":[1e3,2.5]}],"dOne_jobs":[7]}`),
		[]byte(`{"reducers":[{"job":1,"reduce":0,"host":2}],"intents":null}`)))
	f.Add(bodyRecord(f, 1e21, []byte(`{"done_jobs":[1]}`)))
	for _, s := range []string{
		`{"virtual_sec":1,"ops":[{"kind":"job_done","job":1}],"requests":[{"done_jobs":[2]}]}`,
		`{"virtual_sec":1,"requests":[{"done_jobs":[1]},null]}`,
		`{"virtual_sec":1,"requests":[{"done_jobs":[1],"bogus":1}]}`,
		`{"virtual_sec":1,"requests":[{"done_jobs":[1]}],"Requests":[]}`,
		`{"virtual_sec":1,"requests":[]}`,
		`{"virtual_sec":1,"requests":null,"ops":null}`,
		`{"virtual_sec":1,"requests":[{}, {"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[null]}]}]}`,
		`{"virtual_sec":1,"requests":{"done_jobs":[1]}}`,
	} {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		`{"virtual_sec":0.5,"ops":[{"kind":"intent","intent":{"job":1,"map":2,"attempt":1,"src_host":3,"predicted_wire_bytes":[1,2.5e6]}}]}`,
		`{"virtual_sec":1,"ops":[{"kind":"reducer_up","reducer":{"job":1,"reduce":0,"host":2}},{"kind":"job_done","job":1}]}`,
		`{"VIRTUAL_SEC":-0,"Ops":[{"kind":"intent","intent":null,"reducer":{"JOB":1}}]}`,
		`{"virtual_sec":1,"ops":[{"kind":"bogus𐀀\ud800","job":1,"intent":{"ſrc_host":2}}]}`,
		"{\"ops\":[{\"kind\":\"\xff\xfe\"}]}",
		`{"virtual_sec":1,"ops":[],"bogus":1}`,
		`{"virtual_sec":1,"ops":[null]}`,
		`{"ops":[{"kind":"job_done","job":1}],"ops":[]}`,
		`{"virtual_sec":1e999}`,
		`null`,
		`{"ops":null} `,
	} {
		f.Add([]byte(s))
	}
	for _, s := range slices.Concat(ingestSeeds, numberSeeds(true)) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeBatch(data)
		want, oerr := oracleBatch(data)
		switch {
		case err == nil && oerr != nil:
			t.Fatalf("accepted what encoding/json rejects (%v): %q", oerr, data)
		case err == nil && !sameDecoded(got, want):
			t.Fatalf("decoded %+v, encoding/json %+v: %q", got, want, data)
		case err != nil && oerr == nil:
			if tightening(data) == "" {
				t.Fatalf("rejected (%v) what encoding/json accepts, with no named tightening: %q", err, data)
			}
		}
	})
}

func BenchmarkDecodeIngest(b *testing.B) {
	body := mustMarshal(b, sampleRequest(64))
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, _, err := decodeIngest(r, 8, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	_, record := sampleRecord(b, 64)
	b.SetBytes(int64(len(record)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeBatch(record); err != nil {
			b.Fatal(err)
		}
	}
}

// exactEdges are literals at the edges of the exact converter's domain
// that it converts itself: ties to even, carries into the next binade, 19
// significant digits and decimal exponents of ±19.
var exactEdges = []string{
	// 2^53 ± 1 and its halfway neighbours, also as quotients.
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"-9007199254740993", "9007199254740993e0", "900719925474099.3e1", "90071992547409930e-1",
	"9007199254740993000e-3", "9007199254740995000e-3", "9007199254740993001e-3",
	// …5 tails: exact ties below 2^53, and a hair either side.
	"4503599627370496.5", "4503599627370497.5", "4503599627370496.51", "4503599627370496.49",
	"0.5", "2.5", "1.5e-1", "-2251799813685248.25", "2251799813685248.75",
	// Ties that carry into the next binade: 2^63 − 512 and 2^53 − 0.5.
	"9223372036854775296", "9223372036854775295", "9223372036854775297", "9223372036854775807",
	"9007199254740991.5", "-9007199254740991.5", "9007199254740991.49",
	// 19 significant digits, leading zeros not counted.
	"9999999999999999999", "1234567890123456789", "0.1234567890123456789", "0.0000001234567890123456789e7",
	"1.000000000000000000", "0.5e0", "0.00000000000000000001e1",
	// Decimal exponents at ±19.
	"1e19", "1e-19", "-1E+19", "9999999999999999999e19", "9999999999999999999e-19", "1.5e-18", "15e-19",
	"0.0000000000000000001", "1000000000000000000e-1", "3.0e-18", "123456789e11", "1e0000000000000000000000000001",
	// Zero, signed, with any exponent.
	"0", "-0", "0e5", "-0.0", "0e-999", "0E+99999", "-0.000000000000000000000000e-1",
	// Shortest forms of common values.
	"0.1", "0.2", "0.3", "1e-7", "11043103.731461802", "1234.5678901234567", "2.5e6",
}

// fallbackEdges are literals the converter leaves to strconv.ParseFloat
// (more than 19 significant digits, a decimal exponent past ±19, an
// exponent strconv stops reading, an overflow), and strings that are not
// JSON numbers.
var fallbackEdges = []string{
	"12345678901234567890", "18446744073709551615", "18446744073709551616", "10000000000000000000",
	"1.0000000000000000000", "0.12345678901234567891", "9007199254740993.0000",
	"1e20", "1e-20", "-1E+20", "99999999999999999999e-20", "0.000000000000000000123", "123456789e20",
	"15e-20", "3.0e-19", "10000000000000000000e-1", "4503599627370496.4999999",
	"1844674407370955161.5e1", "18446744073709550.592e3",
	"0.0000000000000000000000000001", "100000000000000000000000000000", "1000000000000000000.0000000000",
	"4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "1e-320",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e999", "-1e999", "1e-999", "1e10000", "1e-10000",
	"0." + strings.Repeat("0", 20000) + "1e20005",
	"01", "-01", "1.", ".5", "+1", "1e", "1e+", "-", "", "0x10", "Inf", "NaN", "1_000", "--1", "1.e5", "1e5.0",
}

// intEdges are integer-field literals around int's range and the 19 digits
// the scan folds, and numbers an integer field refuses.
var intEdges = []string{
	"0", "-0", "7", "-7", "999999999999999999", "1000000000000000000", "-1000000000000000000",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"9999999999999999999", "10000000000000000000", "18446744073709551615", "18446744073709551616",
	"99999999999999999999", "-99999999999999999999", "123456789012345678901234567890",
	"1.0", "1e3", "-0.0", "01", "1.", "",
}

// numberSeeds are fuzz seeds carrying the edge literals: ingest bodies
// with them as byte predictions and integer fields, or request-form
// journal records with them as the clock target too.
func numberSeeds(record bool) []string {
	var out []string
	for _, lit := range slices.Concat(exactEdges, fallbackEdges) {
		if record {
			out = append(out, `{"virtual_sec":`+lit+`,"requests":[{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[1,`+lit+`]}]}]}`)
		} else {
			out = append(out, `{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[`+lit+`,1]}]}`)
		}
	}
	for _, lit := range intEdges {
		if record {
			out = append(out, `{"virtual_sec":1,"requests":[{"done_jobs":[`+lit+`]},{"reducers":[{"job":`+lit+`,"reduce":0,"host":1}]}]}`)
		} else {
			out = append(out, `{"reducers":[{"job":`+lit+`,"reduce":0,"host":1}],"done_jobs":[`+lit+`]}`)
		}
	}
	return out
}

// convertFloat runs one literal through the decoder's float field path.
func convertFloat(lit []byte) (float64, error) {
	d := decoder{buf: lit}
	v := d.float()
	d.end()
	return v, d.err
}

// exactDomain reports whether the decoder converts lit itself rather than
// through strconv.
func exactDomain(lit []byte) bool {
	d := decoder{buf: lit}
	var n num
	d.number(&n)
	d.end()
	return d.err == nil && (n.w == 0 || n.nd <= 19 && -19 <= n.q && n.q <= 19)
}

// checkFloat compares the decoder's value for lit with strconv.ParseFloat
// bit for bit, and its accept/reject with strconv's when lit is valid
// JSON.
func checkFloat(t *testing.T, lit []byte, valid bool) {
	got, err := convertFloat(lit)
	want, werr := strconv.ParseFloat(string(lit), 64)
	switch {
	case (werr == nil && valid) != (err == nil):
		t.Errorf("%.60q: decoder error %v, strconv error %v, valid JSON %v", lit, err, werr, valid)
	case err == nil && math.Float64bits(got) != math.Float64bits(want):
		t.Errorf("%.60q: decoder %v (%#x), strconv %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestNumberConversionMatchesStrconv holds the exact converter behind
// float fields to strconv.ParseFloat bit for bit: the edges of its domain,
// then a seeded sweep of a million literals; and integer fields to
// strconv.ParseInt, overflow included.
func TestNumberConversionMatchesStrconv(t *testing.T) {
	for _, lit := range exactEdges {
		if !exactDomain([]byte(lit)) {
			t.Errorf("%.60q: left to strconv, want the exact converter", lit)
		}
		checkFloat(t, []byte(lit), json.Valid([]byte(lit)))
		var v float64
		if err := json.Unmarshal([]byte(lit), &v); err != nil {
			t.Errorf("%q: encoding/json: %v", lit, err)
		} else if got, _ := convertFloat([]byte(lit)); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("%q: decoder %v, encoding/json %v", lit, got, v)
		}
	}
	for _, lit := range fallbackEdges {
		if exactDomain([]byte(lit)) {
			t.Errorf("%.60q: taken by the exact converter, want strconv", lit)
		}
		checkFloat(t, []byte(lit), json.Valid([]byte(lit)))
	}

	// The sweep: shortest forms (of any float64 too), 21 and 26+
	// significant digits, and random 1–20 digit decimals with a point and
	// an exponent, both signs.
	rng := rand.New(rand.NewPCG(1, 41))
	const n = 1_000_000
	var lit []byte
	exact := 0
	for i := 0; i < n; i++ {
		x := rng.Float64() * math.Pow10(rng.IntN(45)-22)
		if rng.IntN(2) == 0 {
			x = float64(rng.Uint64() >> rng.IntN(64))
		}
		lit = lit[:0]
		if rng.IntN(2) == 0 {
			lit = append(lit, '-')
		}
		switch i % 5 {
		case 0:
			lit = strconv.AppendFloat(lit, x, 'g', -1, 64)
		case 1:
			x = math.Float64frombits(rng.Uint64() &^ (1 << 63))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = math.MaxFloat64
			}
			lit = strconv.AppendFloat(lit, x, 'g', -1, 64)
		case 2:
			lit = strconv.AppendFloat(lit, x, 'e', 20, 64)
		case 3:
			lit = strconv.AppendFloat(lit, x, 'f', 25, 64)
		default:
			digits := strconv.FormatUint(rng.Uint64()>>rng.IntN(64), 10)
			if p := rng.IntN(len(digits) + 1); p < len(digits) {
				digits = digits[:p] + "." + digits[p:]
				if p == 0 {
					digits = "0" + digits
				}
			}
			lit = append(lit, digits...)
			lit = append(lit, 'e')
			lit = strconv.AppendInt(lit, int64(rng.IntN(47)-23), 10)
		}
		if exactDomain(lit) {
			exact++
		}
		checkFloat(t, lit, true) // every form above is a JSON number
		if t.Failed() {
			return
		}
	}
	if exact < n/4 {
		t.Errorf("the exact converter took %d of %d sweep literals, want at least a quarter", exact, n)
	}

	for _, lit := range intEdges {
		d := decoder{buf: []byte(lit)}
		got := d.int()
		d.end()
		want, werr := strconv.ParseInt(lit, 10, strconv.IntSize)
		var wantErr string
		switch {
		case !json.Valid([]byte(lit)):
			wantErr = "at offset"
		case strings.ContainsAny(lit, ".eE"):
			wantErr = "is not an integer"
		case werr != nil:
			wantErr = "overflows int"
		}
		switch {
		case wantErr == "" && (d.err != nil || got != int(want)):
			t.Errorf("int %q: %d, %v; strconv %d", lit, got, d.err, want)
		case wantErr != "" && (d.err == nil || !strings.Contains(d.err.Error(), wantErr)):
			t.Errorf("int %q: error %v, want one mentioning %q", lit, d.err, wantErr)
		}
	}
}
