package hadoop

import (
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/hdfs"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Data-locality scheduling against an HDFS input file.

// localityRig writes an input file whose blocks land across the cluster and
// wires it as the job's input source.
func localityRig(t *testing.T, blocks int) (*sim.Engine, *netsim.Network, *Cluster, *hdfs.FileSystem) {
	t.Helper()
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	res := ecmp.New(g, 1)
	fs := hdfs.New(eng, net, hosts, res, hdfs.Config{}, 1)
	written := false
	fs.Write(hosts[0], "/input", float64(blocks)*64e6, func(*hdfs.File) { written = true })
	eng.Run()
	if !written {
		t.Fatal("input write did not finish")
	}
	cl := NewCluster(eng, net, hosts, res, Config{})
	cl.SetInputSource(fs)
	return eng, net, cl, fs
}

func TestLocalityPreferredPlacement(t *testing.T) {
	eng, _, cl, _ := localityRig(t, 12)
	spec := uniformSpec(12, 2, 1, 1e6)
	spec.InputFile = "/input"
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	if j.LocalMaps+j.RemoteMaps != 12 {
		t.Fatalf("locality accounting: local=%d remote=%d", j.LocalMaps, j.RemoteMaps)
	}
	// A single-writer input concentrates first replicas on the writer
	// (default policy), so perfect locality is impossible; still, with 3
	// replicas per block the majority of maps should be node-local.
	if j.LocalMaps < 6 {
		t.Fatalf("only %d/12 maps were data-local", j.LocalMaps)
	}
	if j.RemoteMaps == 0 {
		t.Fatal("expected some remote maps with a single-writer input")
	}
}

func TestRemoteMapsStreamInput(t *testing.T) {
	// Only rack-0 datanodes hold the input (single-rack write with all
	// replicas there is impossible under the default policy, so instead
	// use a filesystem whose datanodes are rack-0 only); maps placed on
	// rack-1 trackers must stream their block across the fabric.
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	res := ecmp.New(g, 1)
	fs := hdfs.New(eng, net, hosts[:5], res, hdfs.Config{}, 1)
	fs.Write(hosts[0], "/input", 12*64e6, nil)
	eng.Run()
	readsBefore := fs.BytesRead

	cl := NewCluster(eng, net, hosts, res, Config{MapSlots: 1})
	cl.SetInputSource(fs)
	spec := uniformSpec(12, 2, 1, 1e6)
	spec.InputFile = "/input"
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	if j.RemoteMaps == 0 {
		t.Fatal("no remote maps despite rack-1 holding no replicas")
	}
	if fs.BytesRead <= readsBefore {
		t.Fatal("remote maps did not stream input")
	}
}

func TestRemoteMapsSlowerThanLocal(t *testing.T) {
	run := func(withInput bool) float64 {
		eng := sim.NewEngine()
		g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
		net := netsim.New(eng, g)
		res := ecmp.New(g, 1)
		fs := hdfs.New(eng, net, hosts[:5], res, hdfs.Config{}, 1)
		fs.Write(hosts[0], "/input", 20*64e6, nil)
		eng.Run()
		cl := NewCluster(eng, net, hosts, res, Config{MapSlots: 1})
		cl.SetInputSource(fs)
		spec := uniformSpec(20, 2, 1, 1e6)
		if withInput {
			spec.InputFile = "/input"
		}
		j, _ := cl.Submit(spec)
		eng.Run()
		return float64(j.Duration())
	}
	withStreaming := run(true)
	allLocal := run(false)
	if withStreaming <= allLocal {
		t.Fatalf("input streaming free: %.2fs vs %.2fs", withStreaming, allLocal)
	}
}

func TestLocalityWithoutSourceIsNoop(t *testing.T) {
	eng, _, cl := rig(Config{})
	spec := uniformSpec(6, 2, 1, 1e6)
	spec.InputFile = "/missing" // no SetInputSource: must be ignored
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	if j.LocalMaps != 0 || j.RemoteMaps != 0 {
		t.Fatal("locality counted without a source")
	}
}

func TestInputFileLargerSpecDegrades(t *testing.T) {
	// Spec with more maps than the file has blocks: extra maps fall back
	// to local compute rather than erroring.
	eng, _, cl, _ := localityRig(t, 4)
	spec := uniformSpec(8, 2, 1, 1e6)
	spec.InputFile = "/input"
	j, _ := cl.Submit(spec)
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
}
