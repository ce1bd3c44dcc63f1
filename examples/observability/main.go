// Observability demonstrates the cross-plane flight recorder, entirely
// through the facade: it runs one skewed sort job under Pythia at 1:10
// oversubscription with the recorder on, prints the per-job lifecycle digest
// (the critical path of the job's worst aggregate — spill detection to flow
// completion) and the prediction-quality scores, then writes three artifacts
// into ./out/: the raw JSONL event log, a Prometheus text snapshot of the
// derived metrics, and a merged Chrome/Perfetto trace combining fabric task
// spans with the control-plane flight lanes.
package main

import (
	"fmt"
	"os"

	"pythia"
)

func main() {
	// A skewed job keeps one aggregate hot — that aggregate's lifecycle is
	// the one the summary's critical path tells the story of.
	cl := pythia.New(
		pythia.WithScheduler(pythia.SchedulerPythia),
		pythia.WithOversubscription(10),
		pythia.WithFlightRecorder(),
	)
	res := cl.RunJob(pythia.SortJob(8*pythia.GB, 8, 3))
	fmt.Printf("sort finished in %.1fs under Pythia, %d flight events recorded\n\n",
		res.DurationSec, cl.FlightEventCount())

	// Per-job digest: event volumes, per-plane latencies, and the critical
	// path of the worst (largest) aggregate.
	fmt.Print(cl.FlightSummary())

	// Prediction quality: did the rules beat the flows onto the fabric?
	q := cl.PredictionQuality()
	fmt.Printf("\nprediction lead time p50/p95/max: %.3f/%.3f/%.3f s\n",
		q.LeadP50Sec, q.LeadP95Sec, q.LeadMaxSec)
	fmt.Printf("late predictions: %.1f%% of %d covered flows\n",
		q.LateFraction*100, q.CoveredFlows)
	fmt.Printf("predicted-vs-actual byte error: %.2f%% mean\n", q.ByteErrMeanAbsFrac*100)

	if err := os.MkdirAll("out", 0o755); err != nil {
		panic(err)
	}
	must := func(name string, data []byte) {
		if err := os.WriteFile("out/"+name, data, 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote out/%s\n", name)
	}
	// Raw event log: one JSON object per line, byte-identical across
	// same-seed runs.
	must("flight.jsonl", cl.FlightJSONL())
	// Derived metrics in Prometheus text exposition format.
	must("metrics.prom", []byte(cl.PrometheusSnapshot()))
	// Fabric spans (pid 0) + control-plane lanes (pid 1) in one trace; open
	// in chrome://tracing or Perfetto.
	merged, err := cl.MergedChromeTrace()
	if err != nil {
		panic(err)
	}
	must("merged.trace.json", merged)
}
