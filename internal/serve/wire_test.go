package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pythia/internal/core"
	"pythia/internal/topology"
)

// goldenIngest is the canonical v1 request encoding. The wire format is a
// compatibility contract: if this test breaks, the protocol version must
// bump.
const goldenIngest = `{
  "reducers": [{"job": 3, "reduce": 0, "host": 5}],
  "intents": [
    {"job": 3, "map": 1, "src_host": 0, "predicted_wire_bytes": [1000000, 2500000]},
    {"job": 3, "map": 2, "attempt": 1, "src_host": 7, "predicted_wire_bytes": [500000]}
  ],
  "done_jobs": [2]
}`

// TestWireGoldenRoundTrip: the golden vector decodes to the expected
// structure, survives an encode/decode round trip, and omits empty optional
// fields on re-encode.
func TestWireGoldenRoundTrip(t *testing.T) {
	req, _, err := decodeIngest(strings.NewReader(goldenIngest), 8, 0, false)
	if err != nil {
		t.Fatalf("decode golden vector: %v", err)
	}
	want := &IngestRequest{
		Reducers: []WireReducerUp{{Job: 3, Reduce: 0, Host: 5}},
		Intents: []WireIntent{
			{Job: 3, Map: 1, SrcHost: 0, PredictedWireBytes: []float64{1e6, 2.5e6}},
			{Job: 3, Map: 2, Attempt: 1, SrcHost: 7, PredictedWireBytes: []float64{5e5}},
		},
		DoneJobs: []int{2},
	}
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("golden vector decoded to\n%+v\nwant\n%+v", req, want)
	}

	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if strings.Contains(string(b), "attempt") && !strings.Contains(string(b), `"attempt":1`) {
		t.Errorf("attempt=0 not omitted on re-encode: %s", b)
	}
	again, _, err := decodeIngest(strings.NewReader(string(b)), 8, 0, false)
	if err != nil {
		t.Fatalf("decode re-encoded request: %v", err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("round trip diverged:\n%+v\nwant\n%+v", again, want)
	}
}

// TestWireToOps: protocol order (reducers, intents, done_jobs) with host
// indexes mapped through the fabric table.
func TestWireToOps(t *testing.T) {
	hosts := []topology.NodeID{100, 101, 102, 103, 104, 105, 106, 107}
	req, _, err := decodeIngest(strings.NewReader(goldenIngest), len(hosts), 0, false)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ops := req.ToOps(hosts)
	wantKinds := []core.OpKind{core.OpReducerUp, core.OpIntent, core.OpIntent, core.OpJobDone}
	if len(ops) != len(wantKinds) {
		t.Fatalf("got %d ops, want %d", len(ops), len(wantKinds))
	}
	for i, k := range wantKinds {
		if ops[i].Kind != k {
			t.Errorf("ops[%d].Kind = %v, want %v", i, ops[i].Kind, k)
		}
	}
	if ops[0].Reducer.Host != 105 {
		t.Errorf("reducer host = %v, want 105", ops[0].Reducer.Host)
	}
	if ops[2].Intent.SrcHost != 107 {
		t.Errorf("intent src = %v, want 107", ops[2].Intent.SrcHost)
	}
	if ops[3].Job != 2 {
		t.Errorf("done job = %d, want 2", ops[3].Job)
	}
}

// TestWireBatchToOps: a request-form record lowers to its requests'
// operations concatenated in order — the sequence the batch loop applied.
// A record that also holds the retired ops form is refused by the decoder,
// and a request the handler would have refused fails replay with the
// request's index.
func TestWireBatchToOps(t *testing.T) {
	hosts := []topology.NodeID{100, 101, 102, 103, 104, 105, 106, 107}
	bodies := [][]byte{[]byte(goldenIngest), []byte(`{"done_jobs":[5],"reducers":[{"job":5,"reduce":1,"host":7}]}`)}
	var want []core.Op
	for _, body := range bodies {
		req, _, err := decodeIngest(bytes.NewReader(body), len(hosts), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, req.ToOps(hosts)...)
	}
	b, err := decodeBatch(bodyRecord(t, 2.5, bodies...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ToOps(hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request-form record lowered to\n%+v\nwant\n%+v", got, want)
	}

	for _, tc := range []struct{ name, record, wantErr string }{
		{"both forms", `{"virtual_sec":1,"ops":[{"kind":"job_done","job":1}],"requests":[{"done_jobs":[2]}]}`,
			errOpsForm.Error()},
		{"host outside the fabric", `{"virtual_sec":1,"requests":[{"done_jobs":[1]},{"reducers":[{"job":0,"reduce":0,"host":8}]}]}`,
			"request 1: reducers[0]: host 8 outside [0,8)"},
		{"empty request", `{"virtual_sec":1,"requests":[{}]}`, "request 0: empty request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := decodeBatch([]byte(tc.record))
			if err == nil {
				_, err = b.ToOps(hosts)
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestWireRejections: every malformed-request class is refused with a
// diagnostic mentioning the offending field.
func TestWireRejections(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"truncated JSON", `{"intents": [`, "malformed"},
		{"trailing data", `{"done_jobs":[1]} {"done_jobs":[2]}`, "trailing data"},
		{"unknown field", `{"done_jobs":[1],"bogus":true}`, "bogus"},
		{"empty request", `{}`, "empty request"},
		{"negative job", `{"intents":[{"job":-1,"map":0,"src_host":0,"predicted_wire_bytes":[1]}]}`, "negative job"},
		{"host out of range", `{"reducers":[{"job":0,"reduce":0,"host":8}]}`, "outside"},
		{"negative src_host", `{"intents":[{"job":0,"map":0,"src_host":-1,"predicted_wire_bytes":[1]}]}`, "src_host"},
		{"no predicted bytes", `{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[]}]}`, "empty predicted_wire_bytes"},
		{"negative bytes", `{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[-5]}]}`, "finite non-negative"},
		{"non-finite bytes", `{"intents":[{"job":0,"map":0,"src_host":0,"predicted_wire_bytes":[1e999]}]}`, "malformed"},
		{"negative done job", `{"done_jobs":[-2]}`, "negative job"},
		{"over op budget", `{"done_jobs":[1,2,3]}`, "exceeds 2 operations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			maxOps := 0
			if tc.name == "over op budget" {
				maxOps = 2
			}
			_, _, err := decodeIngest(strings.NewReader(tc.body), 8, maxOps, false)
			if err == nil {
				t.Fatalf("body %q was accepted", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
