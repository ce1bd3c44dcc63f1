package hadoop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pythia/internal/ecmp"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Fetch-retry semantics under partitions, and poll/parallelism timing.

func TestFetchRetriesAcrossPartition(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, trunks := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cl := NewCluster(eng, net, hosts, ecmp.New(g, 1), Config{})
	j, _ := cl.Submit(uniformSpec(8, 4, 1, 5e6))
	// Partition both trunks from t=2 (before fetches can finish) to t=20.
	setAll := func(up bool) {
		for _, tr := range trunks {
			g.SetLinkUp(tr, up)
			if r, ok := g.Reverse(tr); ok {
				g.SetLinkUp(r, up)
			}
		}
		net.NotifyTopology()
	}
	eng.At(2, func() { setAll(false) })
	eng.At(20, func() { setAll(true) })
	eng.Run()
	if !j.Done {
		t.Fatal("job did not recover from partition (fetch retries broken)")
	}
	if float64(j.Finished) < 20 {
		// Only possible if nothing inter-rack existed; with 4 reducers
		// over 10 hosts some inter-rack traffic is certain.
		t.Fatalf("job finished at %v during partition", j.Finished)
	}
}

func TestEventPollIntervalBoundsFetchLag(t *testing.T) {
	// With a long poll interval, the gap between map completion and its
	// fetch grows accordingly.
	gapFor := func(poll sim.Duration) float64 {
		eng := sim.NewEngine()
		g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
		net := netsim.New(eng, g)
		cl := NewCluster(eng, net, hosts, ecmp.New(g, 1), Config{EventPollInterval: poll})
		spec := uniformSpec(10, 2, 2, 1e6)
		// Stagger maps so late completions land between polls.
		for m := range spec.MapDurations {
			spec.MapDurations[m] = float64(m)*1.7 + 1
		}
		j, _ := cl.Submit(spec)
		eng.Run()
		totalGap := 0.0
		flows := net.History()
		for _, f := range flows {
			totalGap += float64(f.Started().Sub(j.Maps[f.Map].Finished))
		}
		return totalGap / float64(len(flows))
	}
	short := gapFor(0.5)
	long := gapFor(6)
	if long <= short {
		t.Fatalf("mean fetch gap did not grow with poll interval: %.2f vs %.2f", short, long)
	}
}

func TestTwoJobsShareSlots(t *testing.T) {
	// FIFO scheduler: job 0's maps occupy the slots first; job 1 still
	// finishes, after job 0's map phase clears.
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cl := NewCluster(eng, net, hosts, ecmp.New(g, 1), Config{})
	j1, _ := cl.Submit(uniformSpec(40, 2, 2, 1e6))
	j2, _ := cl.Submit(uniformSpec(40, 2, 2, 1e6))
	eng.Run()
	if !j1.Done || !j2.Done {
		t.Fatal("jobs did not finish")
	}
	if j2.Finished < j1.MapPhaseEnd {
		t.Fatal("FIFO violated: job2 finished before job1's map phase")
	}
}

func TestFetchSetupDelayVisible(t *testing.T) {
	slow := func(d sim.Duration) float64 {
		eng := sim.NewEngine()
		g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
		net := netsim.New(eng, g)
		cl := NewCluster(eng, net, hosts, ecmp.New(g, 1), Config{FetchSetupDelay: d})
		j, _ := cl.Submit(uniformSpec(10, 2, 1, 1e6))
		eng.Run()
		return float64(j.Duration())
	}
	if slow(2) <= slow(0.01) {
		t.Fatal("per-fetch setup delay had no effect")
	}
}

// Property: for random small job shapes and any scheduler seed, every job
// completes, all tasks end Completed, and reducers fetch exactly the spec
// volume — the end-to-end liveness and conservation sweep.
func TestPropertyJobsAlwaysComplete(t *testing.T) {
	f := func(mapsRaw, reducesRaw, skewRaw uint8, seed uint64) bool {
		maps := int(mapsRaw%24) + 1
		reduces := int(reducesRaw%8) + 1
		eng := sim.NewEngine()
		g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
		net := netsim.New(eng, g)
		cl := NewCluster(eng, net, hosts, ecmp.New(g, seed), Config{})
		d := make([]float64, maps)
		o := make([][]float64, maps)
		for m := range d {
			d[m] = 0.5 + float64((seed>>uint(m%16))&3)
			row := make([]float64, reduces)
			for r := range row {
				row[r] = float64((int(skewRaw)+m+r)%7) * 1e6 // zeros included
			}
			o[m] = row
		}
		spec := &JobSpec{Name: "p", NumMaps: maps, NumReduces: reduces,
			MapDurations: d, MapOutputs: o}
		want := spec.TotalShuffleBytes()
		j, err := cl.Submit(spec)
		if err != nil {
			return false
		}
		eng.Run()
		if !j.Done {
			return false
		}
		var fetched float64
		for _, r := range j.Reduces {
			if r.State != Completed {
				return false
			}
			fetched += r.FetchedBytes
		}
		for _, m := range j.Maps {
			if m.State != Completed {
				return false
			}
		}
		return fetched > want-1 && fetched < want+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
