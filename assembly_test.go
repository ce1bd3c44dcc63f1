package pythia

import (
	"testing"

	"pythia/internal/bench"
	"pythia/internal/netsim"
)

// TestFacadeAndHarnessRunTheSameTrial: the facade and the experiment harness
// are two spellings of one deployment. The same spec, seed, fabric and
// oversubscription level give the same job and shuffle times and the same
// flow history (every flow's ID, endpoints and exact start and finish
// instants) through either entry point, for every scheduler.
func TestFacadeAndHarnessRunTheSameTrial(t *testing.T) {
	const seed = 5
	spec := SortJob(2*GB, 8, seed)
	fabrics := []struct {
		name    string
		facade  []Option
		harness bench.TrialConfig
	}{
		{"two-rack", nil, bench.TrialConfig{}},
		{"two-rack-4-trunks", []Option{WithTrunks(4)}, bench.TrialConfig{Trunks: 4}},
		{"leaf-spine-4x4", []Option{WithTopology(LeafSpineTopology(4, 4, 5))}, bench.TrialConfig{Leaves: 4, Spines: 4}},
	}
	for _, fab := range fabrics {
		for _, k := range allSchedulers {
			fab, k := fab, k
			t.Run(fab.name+"/"+k.String(), func(t *testing.T) {
				cl := New(append([]Option{WithScheduler(k), WithSeed(seed), WithOversubscription(10)}, fab.facade...)...)
				got, err := cl.TryRunJob(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fab.harness
				cfg.Spec, cfg.Seed, cfg.CollectFlowHistory = spec, seed, true
				cfg.Scheduler = bench.Scheduler(k)
				cfg.Oversub = bench.Oversub{Label: "1:10", Ratio: 10}
				want := bench.RunTrial(cfg)

				if got.DurationSec != want.JobSec || got.ShuffleSec != want.ShuffleSec {
					t.Fatalf("facade job %.6fs shuffle %.6fs; harness job %.6fs shuffle %.6fs",
						got.DurationSec, got.ShuffleSec, want.JobSec, want.ShuffleSec)
				}
				var flows []bench.FlowRecord
				cl.net.ForEachCompleted(func(f *netsim.Flow) {
					flows = append(flows, bench.FlowRecord{ID: f.ID, Job: f.Job, Map: f.Map, Reduce: f.Reduce,
						StartSec: float64(f.Started()), EndSec: float64(f.Finished())})
				})
				if len(flows) != len(want.FlowHistory) {
					t.Fatalf("facade completed %d flows, harness %d", len(flows), len(want.FlowHistory))
				}
				for i := range flows {
					if flows[i] != want.FlowHistory[i] {
						t.Fatalf("flow %d: facade %+v, harness %+v", i, flows[i], want.FlowHistory[i])
					}
				}
			})
		}
	}
}
