// Package hdfs models the Hadoop Distributed File System substrate the
// paper's jobs sit on: a namenode applying the default block-placement
// policy (first replica local, second on a remote rack, third on a
// different node of that remote rack), datanodes on every cluster host, and
// replication-pipeline writes and shortest-replica reads carried as flows
// on the network simulator.
//
// HDFS traffic is *not* scheduled by Pythia — it is part of the "rest of
// the datacenter traffic handled through default network control" (§IV) —
// so the filesystem takes its own PathResolver (normally ECMP).
package hdfs

import (
	"fmt"
	"math"

	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/stats"
	"pythia/internal/topology"
)

// PathResolver chooses network paths for block transfers (usually plain
// ECMP; mirrors hadoop.PathResolver).
type PathResolver interface {
	Resolve(t netsim.FiveTuple) (topology.Path, error)
}

// DataPort is the datanode streaming port (50010 in Hadoop 1.x).
const DataPort = 50010

// Config shapes the filesystem.
type Config struct {
	// BlockBytes is the block size (default 64 MB, Hadoop 1.x).
	BlockBytes float64
	// Replication is the replica count per block (default 3).
	Replication int
	// DiskBps caps the block write rate at each datanode; writes are
	// carried as zero-hop flows for the local replica (default 1 Gbps —
	// the paper stored intermediate data in memory, keeping disks off
	// the critical path).
	DiskBps float64
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.BlockBytes == 0 {
		c.BlockBytes = 64e6
	}
	if c.Replication == 0 {
		c.Replication = 3
	}
	if c.DiskBps == 0 {
		c.DiskBps = 1e9
	}
	return c
}

// Block is one replicated extent of a file.
type Block struct {
	ID       int
	Bytes    float64
	Replicas []topology.NodeID
}

// File is a closed HDFS file.
type File struct {
	Name   string
	Bytes  float64
	Blocks []Block
}

// FileSystem is the simulated HDFS instance.
type FileSystem struct {
	eng      *sim.Engine
	net      *netsim.Network
	resolver PathResolver
	cfg      Config
	rng      *stats.RNG

	hosts  []topology.NodeID
	byRack map[int][]topology.NodeID
	racks  []int

	files     map[string]*File
	stored    map[topology.NodeID]float64 // bytes per datanode
	nextBlock int
	nextPort  uint16

	// BytesWritten and BytesRead count completed transfers (all replicas).
	BytesWritten float64
	BytesRead    float64
}

// New builds a filesystem with a datanode on every host.
func New(eng *sim.Engine, net *netsim.Network, hosts []topology.NodeID, resolver PathResolver, cfg Config, seed uint64) *FileSystem {
	if len(hosts) == 0 {
		panic("hdfs: need at least one datanode")
	}
	if resolver == nil {
		panic("hdfs: nil path resolver")
	}
	fs := &FileSystem{
		eng:      eng,
		net:      net,
		resolver: resolver,
		cfg:      cfg.Defaults(),
		rng:      stats.NewRNG(seed ^ 0xD47A),
		hosts:    append([]topology.NodeID(nil), hosts...),
		byRack:   make(map[int][]topology.NodeID),
		files:    make(map[string]*File),
		stored:   make(map[topology.NodeID]float64),
		nextPort: 30000,
	}
	g := net.Graph()
	for _, h := range hosts {
		r := g.Node(h).Rack
		if _, seen := fs.byRack[r]; !seen {
			fs.racks = append(fs.racks, r)
		}
		fs.byRack[r] = append(fs.byRack[r], h)
	}
	return fs
}

// Exists reports whether a file is present.
func (fs *FileSystem) Exists(name string) bool { _, ok := fs.files[name]; return ok }

// Lookup returns a closed file's metadata.
func (fs *FileSystem) Lookup(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// StoredBytes reports the bytes a datanode holds (all replicas counted).
func (fs *FileSystem) StoredBytes(node topology.NodeID) float64 { return fs.stored[node] }

// placeReplicas applies the default HDFS placement policy.
func (fs *FileSystem) placeReplicas(client topology.NodeID) []topology.NodeID {
	n := fs.cfg.Replication
	if n > len(fs.hosts) {
		n = len(fs.hosts)
	}
	replicas := make([]topology.NodeID, 0, n)
	used := map[topology.NodeID]bool{}
	add := func(h topology.NodeID) {
		replicas = append(replicas, h)
		used[h] = true
	}
	// 1st: the client itself when it is a datanode; otherwise random.
	first := client
	if !fs.isDataNode(client) {
		first = fs.hosts[fs.rng.Intn(len(fs.hosts))]
	}
	add(first)
	if len(replicas) == n {
		return replicas
	}
	// 2nd: a node on a different rack (fall back to any other node on
	// single-rack clusters).
	g := fs.net.Graph()
	firstRack := g.Node(first).Rack
	var remote []topology.NodeID
	for _, r := range fs.racks {
		if r == firstRack {
			continue
		}
		remote = append(remote, fs.byRack[r]...)
	}
	var second topology.NodeID = -1
	if len(remote) > 0 {
		second = remote[fs.rng.Intn(len(remote))]
	} else {
		second = fs.randomUnused(used)
	}
	if second >= 0 {
		add(second)
	}
	if len(replicas) == n {
		return replicas
	}
	// 3rd: a different node on the second replica's rack.
	if second >= 0 {
		rack := g.Node(second).Rack
		var candidates []topology.NodeID
		for _, h := range fs.byRack[rack] {
			if !used[h] {
				candidates = append(candidates, h)
			}
		}
		if len(candidates) > 0 {
			add(candidates[fs.rng.Intn(len(candidates))])
		}
	}
	// Any remaining replicas (replication > 3): random unused nodes.
	for len(replicas) < n {
		h := fs.randomUnused(used)
		if h < 0 {
			break
		}
		add(h)
	}
	return replicas
}

func (fs *FileSystem) randomUnused(used map[topology.NodeID]bool) topology.NodeID {
	var free []topology.NodeID
	for _, h := range fs.hosts {
		if !used[h] {
			free = append(free, h)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[fs.rng.Intn(len(free))]
}

func (fs *FileSystem) isDataNode(h topology.NodeID) bool {
	for _, d := range fs.hosts {
		if d == h {
			return true
		}
	}
	return false
}

// Write streams a new file of the given size from client, block by block,
// each block through its replication pipeline (client → r1 → r2 → r3).
// onComplete fires when the final block's last replica lands. It returns an
// error for empty sizes or duplicate names.
func (fs *FileSystem) Write(client topology.NodeID, name string, bytes float64, onComplete func(*File)) error {
	if bytes <= 0 {
		return fmt.Errorf("hdfs: write %q with non-positive size", name)
	}
	if fs.Exists(name) {
		return fmt.Errorf("hdfs: file %q exists", name)
	}
	file := &File{Name: name, Bytes: bytes}
	fs.files[name] = file
	numBlocks := int(math.Ceil(bytes / fs.cfg.BlockBytes))
	fs.writeBlock(client, file, 0, numBlocks, bytes, onComplete)
	return nil
}

// writeBlock writes block idx and chains to the next (HDFS streams blocks
// sequentially on one writer).
func (fs *FileSystem) writeBlock(client topology.NodeID, file *File, idx, total int, remaining float64, onComplete func(*File)) {
	size := fs.cfg.BlockBytes
	if remaining < size {
		size = remaining
	}
	replicas := fs.placeReplicas(client)
	block := Block{ID: fs.nextBlock, Bytes: size, Replicas: replicas}
	fs.nextBlock++

	// Pipeline: client → r1 → r2 → … Every hop moves the full block; the
	// pipeline finishes when its slowest hop finishes.
	hops := make([][2]topology.NodeID, 0, len(replicas))
	prev := client
	for _, r := range replicas {
		hops = append(hops, [2]topology.NodeID{prev, r})
		prev = r
	}
	pendingHops := len(hops)
	hopDone := func() {
		pendingHops--
		if pendingHops > 0 {
			return
		}
		// Block committed on all replicas.
		file.Blocks = append(file.Blocks, block)
		for _, r := range replicas {
			fs.stored[r] += size
		}
		fs.BytesWritten += size * float64(len(replicas))
		if idx+1 < total {
			fs.writeBlock(client, file, idx+1, total, remaining-size, onComplete)
			return
		}
		if onComplete != nil {
			onComplete(file)
		}
	}
	for _, hop := range hops {
		fs.transfer(hop[0], hop[1], size, hopDone)
	}
}

// transfer moves bytes src→dst as a Storage flow (zero-hop local replica
// writes are capped by disk rate via the network's local-path handling).
func (fs *FileSystem) transfer(src, dst topology.NodeID, bytes float64, done func()) {
	port := fs.nextPort
	fs.nextPort++
	if fs.nextPort == 0 {
		fs.nextPort = 30000
	}
	tuple := netsim.FiveTuple{SrcHost: src, DstHost: dst, SrcPort: DataPort, DstPort: port, Protocol: 6}
	var path topology.Path
	if src == dst {
		path = topology.Path{Src: src, Dst: dst}
	} else {
		p, err := fs.resolver.Resolve(tuple)
		if err != nil {
			// Unroutable (partition): retry like the DFSClient does.
			fs.eng.After(5*sim.Second, func() { fs.transfer(src, dst, bytes, done) })
			return
		}
		path = p
	}
	fs.net.StartFlow(tuple, netsim.Storage, path, bytes*8, -1, -1, -1, func(*netsim.Flow) { done() })
}

// Delete removes a file's metadata and frees its replicas' storage.
func (fs *FileSystem) Delete(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("hdfs: file %q not found", name)
	}
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			fs.stored[r] -= b.Bytes
			if fs.stored[r] < 0 {
				fs.stored[r] = 0
			}
		}
	}
	delete(fs.files, name)
	return nil
}

// FailDataNode removes a datanode from service and re-replicates every
// block that held a replica there: for each under-replicated block, a
// surviving replica streams a copy to a new node (the namenode's
// re-replication queue). onComplete (may be nil) fires when all transfers
// land. Blocks with no surviving replica are lost and counted.
func (fs *FileSystem) FailDataNode(node topology.NodeID, onComplete func(recovered, lost int)) {
	// Remove from the datanode set.
	kept := fs.hosts[:0]
	for _, h := range fs.hosts {
		if h != node {
			kept = append(kept, h)
		}
	}
	fs.hosts = kept
	g := fs.net.Graph()
	fs.byRack = make(map[int][]topology.NodeID)
	fs.racks = fs.racks[:0]
	for _, h := range fs.hosts {
		r := g.Node(h).Rack
		if _, seen := fs.byRack[r]; !seen {
			fs.racks = append(fs.racks, r)
		}
		fs.byRack[r] = append(fs.byRack[r], h)
	}
	fs.stored[node] = 0

	pending := 0
	recovered, lost := 0, 0
	finish := func() {
		if pending == 0 && onComplete != nil {
			onComplete(recovered, lost)
		}
	}
	for _, f := range fs.files {
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			idx := -1
			for i, r := range b.Replicas {
				if r == node {
					idx = i
				}
			}
			if idx < 0 {
				continue
			}
			b.Replicas = append(b.Replicas[:idx], b.Replicas[idx+1:]...)
			if len(b.Replicas) == 0 {
				lost++
				continue
			}
			// Pick a target not already holding the block.
			used := map[topology.NodeID]bool{}
			for _, r := range b.Replicas {
				used[r] = true
			}
			target := fs.randomUnused(used)
			if target < 0 {
				continue // cluster too small to restore replication
			}
			src := b.Replicas[0]
			block := b
			bytes := b.Bytes
			pending++
			fs.transfer(src, target, bytes, func() {
				block.Replicas = append(block.Replicas, target)
				fs.stored[target] += bytes
				fs.BytesWritten += bytes
				recovered++
				pending--
				finish()
			})
		}
	}
	finish()
}

// BlockReplicas implements the hadoop.InputSource interface: the datanodes
// holding block idx of the named file.
func (fs *FileSystem) BlockReplicas(name string, idx int) ([]topology.NodeID, bool) {
	f, ok := fs.files[name]
	if !ok || idx < 0 || idx >= len(f.Blocks) {
		return nil, false
	}
	return append([]topology.NodeID(nil), f.Blocks[idx].Replicas...), true
}

// ReadBlock streams block idx of the named file to the client from its
// nearest replica (hadoop.InputSource).
func (fs *FileSystem) ReadBlock(client topology.NodeID, name string, idx int, done func()) error {
	f, ok := fs.files[name]
	if !ok || idx < 0 || idx >= len(f.Blocks) {
		return fmt.Errorf("hdfs: no block %d in %q", idx, name)
	}
	block := f.Blocks[idx]
	src := fs.nearestReplica(client, block.Replicas)
	fs.BytesRead += block.Bytes
	fs.transfer(src, client, block.Bytes, func() {
		if done != nil {
			done()
		}
	})
	return nil
}

// WriteOutput adapts Write to the hadoop.OutputSink interface (reducer
// write-back). Name collisions append a uniquifying suffix rather than
// failing, since task re-execution can legitimately rewrite output.
func (fs *FileSystem) WriteOutput(client topology.NodeID, name string, bytes float64, done func()) {
	final := name
	for i := 1; fs.Exists(final); i++ {
		final = fmt.Sprintf("%s.%d", name, i)
	}
	onComplete := func(*File) {
		if done != nil {
			done()
		}
	}
	if err := fs.Write(client, final, bytes, onComplete); err != nil {
		panic(fmt.Sprintf("hdfs: WriteOutput: %v", err))
	}
}

// Read streams a file to the client from the nearest replica of each block
// (same node beats same rack beats remote), sequentially, calling done at
// the end. Unknown files return an error.
func (fs *FileSystem) Read(client topology.NodeID, name string, done func()) error {
	file, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("hdfs: file %q not found", name)
	}
	if len(file.Blocks) == 0 {
		return fmt.Errorf("hdfs: file %q still being written", name)
	}
	fs.readBlock(client, file, 0, done)
	return nil
}

func (fs *FileSystem) readBlock(client topology.NodeID, file *File, idx int, done func()) {
	if idx >= len(file.Blocks) {
		if done != nil {
			done()
		}
		return
	}
	block := file.Blocks[idx]
	src := fs.nearestReplica(client, block.Replicas)
	fs.BytesRead += block.Bytes
	fs.transfer(src, client, block.Bytes, func() {
		fs.readBlock(client, file, idx+1, done)
	})
}

// nearestReplica prefers the client itself, then a same-rack replica, then
// any.
func (fs *FileSystem) nearestReplica(client topology.NodeID, replicas []topology.NodeID) topology.NodeID {
	g := fs.net.Graph()
	clientRack := g.Node(client).Rack
	best := replicas[0]
	bestScore := 3
	for _, r := range replicas {
		score := 2
		if r == client {
			score = 0
		} else if g.Node(r).Rack == clientRack {
			score = 1
		}
		if score < bestScore {
			best, bestScore = r, score
		}
	}
	return best
}
