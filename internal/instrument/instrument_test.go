package instrument

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pythia/internal/ecmp"
	"pythia/internal/hadoop"
	"pythia/internal/mgmtnet"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

func TestIndexRoundTrip(t *testing.T) {
	parts := []float64{100e6, 20e6, 0, 5e6}
	idx := BuildIndex(parts)
	got, err := DecodeIndex(idx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != 4 {
		t.Fatalf("segments = %d", len(got.Segments))
	}
	for r, s := range got.Segments {
		if s.RawLength != uint64(parts[r]) {
			t.Fatalf("segment %d raw = %d, want %d", r, s.RawLength, uint64(parts[r]))
		}
		if s.PartLength < s.RawLength {
			t.Fatalf("segment %d part < raw", r)
		}
	}
	// Offsets must be cumulative and nonoverlapping.
	var off uint64
	for r, s := range got.Segments {
		if s.Start != off {
			t.Fatalf("segment %d start = %d, want %d", r, s.Start, off)
		}
		off += s.PartLength
	}
}

func TestIndexEmptyPartitions(t *testing.T) {
	idx := BuildIndex(nil)
	got, err := DecodeIndex(idx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != 0 {
		t.Fatal("empty index grew segments")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := BuildIndex([]float64{1e6, 2e6}).Encode()

	if _, err := DecodeIndex(enc[:5]); err != ErrIndexTruncated {
		t.Fatalf("short buffer err = %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := DecodeIndex(bad); err != ErrIndexMagic {
		t.Fatalf("bad magic err = %v", err)
	}
	badVer := append([]byte(nil), enc...)
	badVer[5] = 99
	if _, err := DecodeIndex(badVer); err != ErrIndexVersion {
		t.Fatalf("bad version err = %v", err)
	}
	flip := append([]byte(nil), enc...)
	flip[headerSize+3] ^= 0x01 // corrupt a segment byte
	if _, err := DecodeIndex(flip); err != ErrIndexChecksum {
		t.Fatalf("corrupted body err = %v", err)
	}
	trunc := enc[:len(enc)-8]
	if _, err := DecodeIndex(trunc); err != ErrIndexTruncated {
		t.Fatalf("truncated err = %v", err)
	}
}

func TestBuildIndexPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative partition did not panic")
		}
	}()
	BuildIndex([]float64{-1})
}

// Property: round trip preserves every segment for arbitrary partition
// vectors.
func TestPropertyIndexRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		parts := make([]float64, len(raw))
		for i, v := range raw {
			parts[i] = float64(v)
		}
		idx := BuildIndex(parts)
		got, err := DecodeIndex(idx.Encode())
		if err != nil {
			return false
		}
		if len(got.Segments) != len(idx.Segments) {
			return false
		}
		for i := range got.Segments {
			if got.Segments[i] != idx.Segments[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// recordingSink captures middleware output.
type recordingSink struct {
	intents []Intent
	ups     []ReducerUp
}

func (s *recordingSink) ShuffleIntent(i Intent) { s.intents = append(s.intents, i) }
func (s *recordingSink) ReducerUp(u ReducerUp)  { s.ups = append(s.ups, u) }

func rig() (*sim.Engine, *hadoop.Cluster, *recordingSink, *Middleware) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cl := hadoop.NewCluster(eng, net, hosts, ecmp.New(g, 1), hadoop.Config{})
	sink := &recordingSink{}
	mw := Attach(eng, cl, sink, Config{})
	return eng, cl, sink, mw
}

func spec(maps, reduces int, bytesPer float64) *hadoop.JobSpec {
	d := make([]float64, maps)
	o := make([][]float64, maps)
	for m := range d {
		d[m] = 2
		row := make([]float64, reduces)
		for r := range row {
			row[r] = bytesPer
		}
		o[m] = row
	}
	return &hadoop.JobSpec{Name: "t", NumMaps: maps, NumReduces: reduces,
		MapDurations: d, MapOutputs: o}
}

func TestMiddlewareEmitsOneIntentPerMap(t *testing.T) {
	eng, cl, sink, mw := rig()
	j, _ := cl.Submit(spec(8, 3, 5e6))
	eng.Run()
	if len(sink.intents) != 8 {
		t.Fatalf("intents = %d, want 8", len(sink.intents))
	}
	if mw.IntentsSent != 8 {
		t.Fatalf("IntentsSent = %d", mw.IntentsSent)
	}
	seen := map[int]bool{}
	for _, in := range sink.intents {
		if seen[in.Map] {
			t.Fatalf("duplicate intent for map %d", in.Map)
		}
		seen[in.Map] = true
		if len(in.PredictedWireBytes) != 3 {
			t.Fatalf("intent has %d reducers", len(in.PredictedWireBytes))
		}
		// Each map runs once: attempt 1, from the tracker that ran it.
		if in.Attempt != 1 {
			t.Fatalf("map %d intent has attempt %d, want 1", in.Map, in.Attempt)
		}
		if want := cl.HostOf(j.Maps[in.Map].Tracker); in.SrcHost != want {
			t.Fatalf("map %d intent from %v, want its tracker's host %v", in.Map, in.SrcHost, want)
		}
	}
}

func TestIntentTimingAfterMapFinish(t *testing.T) {
	eng, cl, sink, _ := rig()
	cl.Submit(spec(4, 2, 5e6))
	eng.Run()
	for _, in := range sink.intents {
		lat := float64(in.EmittedAt.Sub(in.MapFinishedAt))
		if lat <= 0 {
			t.Fatalf("intent emitted before map finished: %v", lat)
		}
		if lat > 0.1 {
			t.Fatalf("instrumentation latency %vs too large", lat)
		}
	}
}

func TestPredictionOverestimatesModestly(t *testing.T) {
	// Predicted wire bytes must exceed actual wire bytes (payload*1.045)
	// by the Fig. 5 margin: 3–7%.
	eng, cl, sink, _ := rig()
	const payload = 10e6
	cl.Submit(spec(4, 2, payload))
	eng.Run()
	actualWire := payload * 1.045
	for _, in := range sink.intents {
		for _, p := range in.PredictedWireBytes {
			over := p/actualWire - 1
			if over < 0.01 || over > 0.09 {
				t.Fatalf("overestimate = %.3f, want within (0.01, 0.09)", over)
			}
		}
	}
}

func TestReducerUpEvents(t *testing.T) {
	eng, cl, sink, _ := rig()
	cl.Submit(spec(6, 4, 1e6))
	eng.Run()
	if len(sink.ups) != 4 {
		t.Fatalf("reducer-up events = %d, want 4", len(sink.ups))
	}
	seen := map[int]bool{}
	for _, u := range sink.ups {
		if seen[u.Reduce] {
			t.Fatal("duplicate reducer-up")
		}
		seen[u.Reduce] = true
		if u.Host < 0 {
			t.Fatal("reducer-up without host")
		}
	}
}

func TestOverheadWithinPaperBand(t *testing.T) {
	eng, cl, _, mw := rig()
	// Realistic map durations (10 s) so the spike amortization matches
	// production-shaped jobs, which is what §V-C measured.
	js := spec(40, 4, 2e6)
	for m := range js.MapDurations {
		js.MapDurations[m] = 10
	}
	cl.Submit(js)
	eng.Run()
	rep := mw.Overhead()
	if rep.Spills != 40 {
		t.Fatalf("spills = %d, want 40", rep.Spills)
	}
	if rep.MeanCPUFraction < 0.02 || rep.MeanCPUFraction > 0.05 {
		t.Fatalf("mean CPU fraction = %.4f, want within [0.02, 0.05] (§V-C)", rep.MeanCPUFraction)
	}
	if rep.MgmtBytes <= 0 {
		t.Fatal("no management traffic accounted")
	}
}

func TestOverheadZeroElapsed(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(2, 1, topology.Gbps)
	net := netsim.New(eng, g)
	cl := hadoop.NewCluster(eng, net, hosts, ecmp.New(g, 1), hadoop.Config{})
	mw := Attach(eng, cl, &recordingSink{}, Config{})
	rep := mw.Overhead()
	if rep.MeanCPUFraction != 0 || rep.Spills != 0 {
		t.Fatalf("zero-window report: %+v", rep)
	}
}

func TestAttachNilSinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(2, 1, topology.Gbps)
	net := netsim.New(eng, g)
	cl := hadoop.NewCluster(eng, net, hosts, ecmp.New(g, 1), hadoop.Config{})
	defer func() {
		if recover() == nil {
			t.Error("nil sink did not panic")
		}
	}()
	Attach(eng, cl, nil, Config{})
}

func TestPredictionConservation(t *testing.T) {
	// Sum of predicted bytes across intents ≈ total payload *
	// framing * overhead factors.
	eng, cl, sink, _ := rig()
	js := spec(10, 4, 3e6)
	cl.Submit(js)
	eng.Run()
	var predicted float64
	for _, in := range sink.intents {
		for _, p := range in.PredictedWireBytes {
			predicted += p
		}
	}
	want := js.TotalShuffleBytes() * IFileFramingFactor * 1.08
	if math.Abs(predicted-want)/want > 0.001 {
		t.Fatalf("predicted total = %v, want %v", predicted, want)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.PredictOverheadFactor != 1.08 || c.DCCPUFraction != 0.02 {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := Config{PredictOverheadFactor: 1.5}.Defaults()
	if c2.PredictOverheadFactor != 1.5 {
		t.Fatal("explicit value overridden")
	}
}

func BenchmarkIndexEncodeDecode(b *testing.B) {
	parts := make([]float64, 64)
	for i := range parts {
		parts[i] = float64(i) * 1e6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := BuildIndex(parts).Encode()
		if _, err := DecodeIndex(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExplicitManagementNetwork(t *testing.T) {
	// With the mgmtnet model, intents still arrive shortly after the
	// spill, and the network's accounting matches the middleware's.
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cl := hadoop.NewCluster(eng, net, hosts, ecmp.New(g, 1), hadoop.Config{})
	mn := mgmtnet.New(eng, mgmtnet.Config{})
	sink := &recordingSink{}
	mw := Attach(eng, cl, sink, Config{Mgmt: mn})
	cl.Submit(spec(8, 3, 5e6))
	eng.Run()
	if len(sink.intents) != 8 {
		t.Fatalf("intents = %d", len(sink.intents))
	}
	if mn.Messages == 0 {
		t.Fatal("no control messages crossed the management network")
	}
	if mn.Bytes != mw.BytesOnMgmt {
		t.Fatalf("accounting mismatch: net %v vs middleware %v", mn.Bytes, mw.BytesOnMgmt)
	}
	for _, in := range sink.intents {
		lat := float64(in.EmittedAt.Sub(in.MapFinishedAt))
		if lat <= 0 || lat > 0.2 {
			t.Fatalf("intent latency %v with mgmt model", lat)
		}
	}
}
