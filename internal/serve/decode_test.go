package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pythia/internal/topology"
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
// unknown fields disallowed, as they now are.
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

// sampleRecord journals sampleRequest(n) as the server does: lowered to
// collector ops on an 8-host table and raised back to wire form.
func sampleRecord(t testing.TB, n int) (*IngestRequest, []byte) {
	req := sampleRequest(n)
	hosts := make([]topology.NodeID, 8)
	hostIdx := make(map[topology.NodeID]int)
	for i := range hosts {
		hosts[i] = topology.NodeID(100 + i)
		hostIdx[hosts[i]] = i
	}
	p, err := encodeBatch(&WireBatch{VirtualSec: 1234.5678901234567, Ops: opsToWire(req.ToOps(hosts), hostIdx)})
	if err != nil {
		t.Fatal(err)
	}
	return req, p
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
		{"journal record with an unknown key", `{"virtual_sec":1,"ops":[{"kind":"job_done","job":4}],"bogus":1}`,
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
				_, err = decodeIngest(strings.NewReader(tc.body), 8, 0)
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
		{WireOp{}, opFields},
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

// TestDecodeAllocs pins the decoder's allocations on a 64-op body and
// record: one byte-prediction slice per intent, plus the request (batch),
// and one exact-length array per list.
func TestDecodeAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops decoders at random")
	}
	req, record := sampleRecord(t, 64)
	body := mustMarshal(t, req)
	r := bytes.NewReader(body)
	got := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if _, err := decodeIngest(r, 8, 0); err != nil {
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
	if want := len(req.Intents) + 4; got != float64(want) {
		t.Errorf("decodeBatch: %v allocs per %d-intent record, want %d", got, len(req.Intents), want)
	}
}

// TestDecodedValuesShareNoBacking: every intent's byte predictions are a
// slice of their own, so a deferred intent the collector keeps pins no
// sibling's.
func TestDecodedValuesShareNoBacking(t *testing.T) {
	req, record := sampleRecord(t, 64)
	got, err := decodeIngest(bytes.NewReader(mustMarshal(t, req)), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeBatch(record)
	if err != nil {
		t.Fatal(err)
	}
	var all [][]float64
	for _, in := range got.Intents {
		all = append(all, in.PredictedWireBytes)
	}
	for _, op := range b.Ops {
		if op.Intent != nil {
			all = append(all, op.Intent.PredictedWireBytes)
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
// tightenings and escaped or case-folded keys.
var ingestSeeds = []string{
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
}

func FuzzDecodeIngest(f *testing.F) {
	for _, s := range ingestSeeds {
		f.Add([]byte(s))
	}
	req, _ := sampleRecord(f, 64)
	f.Add(mustMarshal(f, req))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeIngest(bytes.NewReader(data), 8, 0)
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
	_, record := sampleRecord(f, 64)
	f.Add(record)
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
	for _, s := range ingestSeeds {
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
	req, _ := sampleRecord(b, 64)
	body := mustMarshal(b, req)
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, err := decodeIngest(r, 8, 0); err != nil {
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
