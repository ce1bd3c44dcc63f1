package pythia

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"pythia/internal/flight"
)

// The flight recorder's end-to-end contracts, proven under the full chaos
// storm (every fault plane firing at once): the log is byte-identical across
// same-seed runs, every recorded span has its causal parent, and attaching
// the recorder never changes simulation results.

func TestFlightGoldenUnderChaos(t *testing.T) {
	for _, k := range allSchedulers {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			clA, resA := runChaosCluster(t, k, WithFlightRecorder())
			logA := clA.FlightJSONL()
			if len(logA) == 0 {
				t.Fatal("chaos run recorded no flight events")
			}
			events, err := flight.ParseJSONL(logA)
			if err != nil {
				t.Fatalf("own log does not parse: %v", err)
			}
			// No orphan spans, even mid-storm: every effect has its cause.
			if err := flight.VerifyChains(events); err != nil {
				t.Fatal(err)
			}
			// Same seed, byte-identical log.
			clB, _ := runChaosCluster(t, k, WithFlightRecorder())
			if !bytes.Equal(logA, clB.FlightJSONL()) {
				t.Fatal("same-seed chaos runs produced different flight logs")
			}
			// Pure observer: results match a recorder-less run exactly.
			_, resPlain := runChaosCluster(t, k)
			for i := range resA {
				if resA[i].DurationSec != resPlain[i].DurationSec {
					t.Fatalf("recorder changed job %q: %.9f vs %.9f",
						resA[i].Name, resA[i].DurationSec, resPlain[i].DurationSec)
				}
			}
		})
	}
}

// TestFlightFacadeSurface: the observability accessors all function through
// the facade on a Pythia chaos run.
func TestFlightFacadeSurface(t *testing.T) {
	cl, _ := runChaosCluster(t, SchedulerPythia, WithFlightRecorder())
	if cl.FlightEventCount() == 0 {
		t.Fatal("no events")
	}
	q := cl.PredictionQuality()
	if q.Intents == 0 || q.Bookings == 0 || q.FabricFlows == 0 {
		t.Fatalf("quality volume counters empty: %+v", q)
	}
	if q.LeadSamples == 0 {
		t.Fatalf("no lead-time samples under Pythia: %+v", q)
	}
	prom := cl.PrometheusSnapshot()
	for _, want := range []string{
		"pythia_lead_time_seconds_bucket", "pythia_flight_events_total",
		"pythia_late_prediction_fraction", "pythia_install_rtt_seconds_sum",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("Prometheus snapshot missing %q", want)
		}
	}
	sum := cl.FlightSummary()
	if !strings.Contains(sum, "critical path of worst aggregate") {
		t.Fatalf("summary has no critical path:\n%s", sum)
	}
	merged, err := cl.MergedChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged, &envelope); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	for _, ev := range envelope.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("merged trace missing a process: fabric=%v control=%v", pids[0], pids[1])
	}
}

// TestPrometheusSnapshotPin: the Pythia chaos run's PrometheusSnapshot()
// hashes (FNV-1a 64) to the value it had at 0a14f30, before flight's two
// registries became one — counters, gauges, bucket counts and every float
// sum render bit-for-bit. Captured by adding this test to a checkout of
// 0a14f30 and running
//
//	go test -run TestPrometheusSnapshotPin -count=1 .
//
// whose failure message prints the digest.
func TestPrometheusSnapshotPin(t *testing.T) {
	const want = uint64(0xac9d60a0881f955f)
	cl, _ := runChaosCluster(t, SchedulerPythia, WithFlightRecorder())
	h := fnv.New64a()
	h.Write([]byte(cl.PrometheusSnapshot()))
	if got := h.Sum64(); got != want {
		t.Fatalf("chaos PrometheusSnapshot digest %#016x, pinned %#016x", got, want)
	}
}

// TestFlightDisabledAccessors: without WithFlightRecorder the surface
// returns zero values, never panics.
func TestFlightDisabledAccessors(t *testing.T) {
	cl := New(WithScheduler(SchedulerPythia), WithSeed(2))
	cl.RunJob(WordCountJob(64*MB, 2, 1))
	if cl.FlightJSONL() != nil || cl.FlightEventCount() != 0 {
		t.Fatal("disabled recorder leaked events")
	}
	if cl.FlightSummary() != "" || cl.PrometheusSnapshot() != "" {
		t.Fatal("disabled recorder rendered output")
	}
	if q := cl.PredictionQuality(); q != (PredictionQuality{}) {
		t.Fatalf("disabled recorder scored quality: %+v", q)
	}
	// The merged trace still holds the job's fabric lanes, but no
	// control-plane (pid 1) events.
	data, err := cl.MergedChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		TraceEvents []struct {
			PID int `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	for _, ev := range envelope.TraceEvents {
		if ev.PID == 1 {
			t.Fatal("disabled recorder contributed control-plane events")
		}
	}
}
