package hadoop

import (
	"math"
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/hdfs"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Write-back integration: reducers persist output through the HDFS
// replication pipeline before the job completes.

func writebackRig() (*sim.Engine, *netsim.Network, *Cluster, *hdfs.FileSystem) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	res := ecmp.New(g, 1)
	cl := NewCluster(eng, net, hosts, res, Config{})
	fs := hdfs.New(eng, net, hosts, res, hdfs.Config{}, 1)
	cl.SetOutputSink(fs)
	return eng, net, cl, fs
}

func TestWritebackPersistsReducerOutput(t *testing.T) {
	eng, _, cl, fs := writebackRig()
	spec := uniformSpec(8, 2, 1, 10e6)
	spec.ReduceOutputRatio = 1.0
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	for r := 0; r < 2; r++ {
		name := "/job-0/part-0000" + string(rune('0'+r))
		if !fs.Exists(name) {
			t.Fatalf("missing output file %s", name)
		}
	}
	// Each reducer fetched 8 x 10 MB and wrote it at ratio 1 with 3
	// replicas.
	want := 2 * 8 * 10e6 * 3
	if math.Abs(fs.BytesWritten-want) > 1 {
		t.Fatalf("BytesWritten = %v, want %v", fs.BytesWritten, want)
	}
}

func TestWritebackExtendsJobTime(t *testing.T) {
	run := func(ratio float64) float64 {
		eng, _, cl, _ := writebackRig()
		spec := uniformSpec(8, 2, 1, 40e6)
		spec.ReduceOutputRatio = ratio
		j, _ := cl.Submit(spec)
		eng.Run()
		return float64(j.Duration())
	}
	without := run(0)
	with := run(1.0)
	if with <= without {
		t.Fatalf("write-back did not extend the job: %.2fs vs %.2fs", with, without)
	}
}

func TestWritebackIgnoredWithoutSink(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cl := NewCluster(eng, net, hosts, ecmp.New(g, 1), Config{})
	spec := uniformSpec(4, 2, 1, 5e6)
	spec.ReduceOutputRatio = 1.0
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job without sink did not finish")
	}
}

func TestWritebackSlotHeldDuringWrite(t *testing.T) {
	// With 1 reduce slot per node and big write-backs, the write phase
	// must serialize reducer turnover without leaking slots.
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(2, 1, topology.Gbps)
	net := netsim.New(eng, g)
	res := ecmp.New(g, 1)
	cl := NewCluster(eng, net, hosts, res, Config{ReduceSlots: 1})
	fs := hdfs.New(eng, net, hosts, res, hdfs.Config{}, 1)
	cl.SetOutputSink(fs)
	spec := uniformSpec(4, 8, 1, 20e6)
	spec.ReduceOutputRatio = 1.0
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	for _, tr := range cl.trackers {
		if tr.freeRed != 1 {
			t.Fatalf("tracker %d leaked reduce slots", tr.index)
		}
	}
}
