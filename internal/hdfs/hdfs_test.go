package hdfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pythia/internal/ecmp"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

func rig() (*sim.Engine, *netsim.Network, *FileSystem, []topology.NodeID) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	fs := New(eng, net, hosts, ecmp.New(g, 2, 1), Config{}, 1)
	return eng, net, fs, hosts
}

func TestWriteCreatesReplicatedBlocks(t *testing.T) {
	eng, net, fs, hosts := rig()
	var file *File
	if err := fs.Write(hosts[0], "/data/a", 200e6, func(f *File) { file = f }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if file == nil {
		t.Fatal("write never completed")
	}
	// 200 MB at 64 MB blocks = 4 blocks.
	if len(file.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(file.Blocks))
	}
	g := net.Graph()
	for _, b := range file.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas", b.ID, len(b.Replicas))
		}
		// Default policy: first replica on the writer.
		if b.Replicas[0] != hosts[0] {
			t.Fatalf("first replica on %d, want writer %d", b.Replicas[0], hosts[0])
		}
		// Second on a different rack; third on the second's rack,
		// different node.
		r1 := g.Node(b.Replicas[1]).Rack
		if r1 == g.Node(hosts[0]).Rack {
			t.Fatal("second replica on the writer's rack")
		}
		if g.Node(b.Replicas[2]).Rack != r1 {
			t.Fatal("third replica not on the second's rack")
		}
		if b.Replicas[2] == b.Replicas[1] {
			t.Fatal("third replica duplicates the second")
		}
	}
}

func TestWriteVolumeAccounting(t *testing.T) {
	eng, _, fs, hosts := rig()
	fs.Write(hosts[0], "/x", 128e6, nil)
	eng.Run()
	// 2 blocks x 3 replicas.
	if math.Abs(fs.BytesWritten-3*128e6) > 1 {
		t.Fatalf("BytesWritten = %v, want %v", fs.BytesWritten, 3*128e6)
	}
	total := 0.0
	for _, h := range hosts {
		total += fs.StoredBytes(h)
	}
	if math.Abs(total-3*128e6) > 1 {
		t.Fatalf("stored total = %v", total)
	}
}

func TestWritePipelineTiming(t *testing.T) {
	eng, _, fs, hosts := rig()
	var doneAt sim.Time
	// One 64 MB block: pipeline hops client(local) + 2 remote at 1 Gbps.
	// Slowest remote hop: 64 MB ≈ 0.512 s; hops run concurrently in the
	// fluid model but share the trunk, so expect < 2 s and > 0.5 s.
	fs.Write(hosts[0], "/t", 64e6, func(*File) { doneAt = eng.Now() })
	eng.Run()
	if doneAt < 0.4 || doneAt > 2.5 {
		t.Fatalf("pipeline took %v", doneAt)
	}
}

func TestWriteValidation(t *testing.T) {
	_, _, fs, hosts := rig()
	if err := fs.Write(hosts[0], "/a", 0, nil); err == nil {
		t.Fatal("zero-size write accepted")
	}
	if err := fs.Write(hosts[0], "/a", 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(hosts[0], "/a", 1e6, nil); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestReadPrefersLocalReplica(t *testing.T) {
	eng, net, fs, hosts := rig()
	fs.Write(hosts[0], "/r", 64e6, nil)
	eng.Run()
	// Reading from the writer: all blocks local, no fabric traffic.
	before := net.LinkBits(0)
	readDone := false
	if err := fs.Read(hosts[0], "/r", func() { readDone = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !readDone {
		t.Fatal("read never completed")
	}
	_ = before
	// Local read: the measured read volume counts, but nothing new on the
	// host's uplink beyond what the write placed there.
	if fs.BytesRead != 64e6 {
		t.Fatalf("BytesRead = %v", fs.BytesRead)
	}
}

func TestReadFromRemoteRackWorks(t *testing.T) {
	eng, _, fs, hosts := rig()
	fs.Write(hosts[0], "/far", 64e6, nil)
	eng.Run()
	// A client holding no replica (host1 is in rack0; replica 2,3 are in
	// rack1; host1 may or may not hold one — pick a host that holds none).
	file, _ := fs.Lookup("/far")
	holds := map[topology.NodeID]bool{}
	for _, b := range file.Blocks {
		for _, r := range b.Replicas {
			holds[r] = true
		}
	}
	var client topology.NodeID = -1
	for _, h := range hosts {
		if !holds[h] {
			client = h
			break
		}
	}
	if client == -1 {
		t.Skip("every host holds a replica")
	}
	done := false
	fs.Read(client, "/far", func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("remote read never completed")
	}
}

func TestReadUnknownFile(t *testing.T) {
	_, _, fs, hosts := rig()
	if err := fs.Read(hosts[0], "/nope", nil); err == nil {
		t.Fatal("unknown file read accepted")
	}
}

func TestStorageFlowsAreNotShuffle(t *testing.T) {
	eng, net, fs, hosts := rig()
	fs.Write(hosts[0], "/k", 64e6, nil)
	eng.Run()
	for _, f := range net.History() {
		if f.Kind != netsim.Storage {
			t.Fatalf("HDFS produced %v flow", f.Kind)
		}
	}
	// NetFlow-style shuffle accounting must be untouched.
	if net.HostTxBits(hosts[0]) != 0 {
		t.Fatal("storage traffic counted as shuffle TX")
	}
}

func TestSingleRackFallback(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 1, topology.Gbps)
	net := netsim.New(eng, g)
	// Use only rack-0 hosts as datanodes: remote-rack placement must fall
	// back to same-rack nodes.
	fs := New(eng, net, hosts[:5], ecmp.New(g, 2, 1), Config{}, 1)
	var file *File
	fs.Write(hosts[0], "/single", 64e6, func(f *File) { file = f })
	eng.Run()
	if file == nil {
		t.Fatal("write did not complete")
	}
	if len(file.Blocks[0].Replicas) != 3 {
		t.Fatalf("replicas = %d", len(file.Blocks[0].Replicas))
	}
	seen := map[topology.NodeID]bool{}
	for _, r := range file.Blocks[0].Replicas {
		if seen[r] {
			t.Fatal("duplicate replica node")
		}
		seen[r] = true
	}
}

func TestReplicationCappedByClusterSize(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(1, 1, topology.Gbps)
	net := netsim.New(eng, g)
	fs := New(eng, net, hosts, ecmp.New(g, 2, 1), Config{Replication: 5}, 1)
	var file *File
	fs.Write(hosts[0], "/c", 1e6, func(f *File) { file = f })
	eng.Run()
	if file == nil || len(file.Blocks[0].Replicas) != 2 {
		t.Fatalf("replicas should cap at cluster size 2: %+v", file)
	}
}

func TestConstructorPanics(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(2, 1, topology.Gbps)
	net := netsim.New(eng, g)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty hosts did not panic")
			}
		}()
		New(eng, net, nil, ecmp.New(g, 2, 1), Config{}, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil resolver did not panic")
			}
		}()
		New(eng, net, hosts, nil, Config{}, 1)
	}()
}

func TestDeterministicPlacement(t *testing.T) {
	place := func() []topology.NodeID {
		eng, _, fs, hosts := rig()
		var file *File
		fs.Write(hosts[2], "/d", 64e6, func(f *File) { file = f })
		eng.Run()
		return file.Blocks[0].Replicas
	}
	a, b := place(), place()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("placement nondeterministic")
		}
	}
}

func TestDeleteFreesStorage(t *testing.T) {
	eng, _, fs, hosts := rig()
	fs.Write(hosts[0], "/d", 128e6, nil)
	eng.Run()
	if err := fs.Delete("/d"); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, h := range hosts {
		total += fs.StoredBytes(h)
	}
	if total != 0 {
		t.Fatalf("storage not freed: %v", total)
	}
	if fs.Exists("/d") {
		t.Fatal("file still exists")
	}
	if err := fs.Delete("/d"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestFailDataNodeReplicates(t *testing.T) {
	eng, _, fs, hosts := rig()
	fs.Write(hosts[0], "/r", 192e6, nil) // 3 blocks x 3 replicas
	eng.Run()
	// Fail the writer (first replica of every block).
	var recovered, lost int
	gotCallback := false
	fs.FailDataNode(hosts[0], func(r, l int) { recovered, lost = r, l; gotCallback = true })
	eng.Run()
	if !gotCallback {
		t.Fatal("re-replication never completed")
	}
	if lost != 0 {
		t.Fatalf("lost %d blocks with 2 surviving replicas each", lost)
	}
	if recovered != 3 {
		t.Fatalf("recovered %d blocks, want 3", recovered)
	}
	// Every block is back at 3 replicas, none on the dead node.
	f, _ := fs.Lookup("/r")
	for _, b := range f.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas", b.ID, len(b.Replicas))
		}
		for _, r := range b.Replicas {
			if r == hosts[0] {
				t.Fatal("replica still on failed node")
			}
		}
	}
	if fs.StoredBytes(hosts[0]) != 0 {
		t.Fatal("failed node still accounts storage")
	}
}

func TestFailDataNodeDataLoss(t *testing.T) {
	// Replication 1: failing the only holder loses the blocks.
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(2, 1, topology.Gbps)
	net := netsim.New(eng, g)
	fs := New(eng, net, hosts, ecmp.New(g, 2, 1), Config{Replication: 1}, 1)
	fs.Write(hosts[0], "/solo", 64e6, nil)
	eng.Run()
	var lost int
	fs.FailDataNode(hosts[0], func(r, l int) { lost = l })
	eng.Run()
	if lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
}

func TestReadsSurviveNodeFailure(t *testing.T) {
	eng, _, fs, hosts := rig()
	fs.Write(hosts[0], "/read", 64e6, nil)
	eng.Run()
	fs.FailDataNode(hosts[0], nil)
	eng.Run()
	done := false
	if err := fs.Read(hosts[1], "/read", func() { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("read after failure did not complete")
	}
}

// Property: for random writers and file sizes, placement always honors the
// default policy invariants — first replica on the writer, no duplicate
// nodes per block, second replica off-rack when another rack exists.
func TestPropertyPlacementPolicy(t *testing.T) {
	f := func(writerIdx uint8, sizeMB uint16, seed uint64) bool {
		eng := sim.NewEngine()
		g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
		net := netsim.New(eng, g)
		fs := New(eng, net, hosts, ecmp.New(g, 2, 1), Config{}, seed)
		writer := hosts[int(writerIdx)%len(hosts)]
		size := (float64(sizeMB%512) + 1) * 1e6
		var file *File
		if err := fs.Write(writer, "/p", size, func(fl *File) { file = fl }); err != nil {
			return false
		}
		eng.Run()
		if file == nil {
			return false
		}
		writerRack := g.Node(writer).Rack
		for _, b := range file.Blocks {
			if b.Replicas[0] != writer {
				return false
			}
			seen := map[topology.NodeID]bool{}
			for _, r := range b.Replicas {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
			if len(b.Replicas) >= 2 && g.Node(b.Replicas[1]).Rack == writerRack {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}
