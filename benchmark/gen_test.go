package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"pythia/internal/serve"
)

func testPool(t *testing.T, seed uint64) *pool {
	t.Helper()
	p, err := buildPool(seed, 16, 64, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	a, b, other := testPool(t, 3), testPool(t, 3), testPool(t, 4)
	differs := false
	for c := 0; c < conns; c++ {
		if len(a.conn[c].bodies) == 0 || len(a.conn[c].bodies) != len(b.conn[c].bodies) {
			t.Fatalf("conn %d: %d vs %d requests", c, len(a.conn[c].bodies), len(b.conn[c].bodies))
		}
		for i := range a.conn[c].bodies {
			if !bytes.Equal(a.conn[c].bodies[i], b.conn[c].bodies[i]) {
				t.Fatalf("conn %d request %d differs between two builds of seed 3", c, i)
			}
			if i < len(other.conn[c].bodies) && !bytes.Equal(a.conn[c].bodies[i], other.conn[c].bodies[i]) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("seeds 3 and 4 built the same pool")
	}
}

// TestPoolStreamShape replays each connection's requests in protocol order
// and checks the generator's promises: a job's ops arrive reducers, then
// maps in ascending order, then the retirement; a connection only carries
// its own parity; the live window never exceeds W; every request is full;
// and the drain list is exactly what the stream left live.
func TestPoolStreamShape(t *testing.T) {
	p := testPool(t, 1)
	type state struct {
		reducers, maps int
		sawIntent      bool
	}
	totalLive := 0
	for c := 0; c < conns; c++ {
		live := map[int]*state{}
		retired := map[int]bool{}
		touch := func(job int) *state {
			if job%conns != c {
				t.Fatalf("conn %d carries job %d", c, job)
			}
			if retired[job] {
				t.Fatalf("job %d has ops after its retirement", job)
			}
			if live[job] == nil {
				live[job] = &state{}
			}
			return live[job]
		}
		peak := 0
		for i, body := range p.conn[c].bodies {
			var req serve.IngestRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			if n := len(req.Reducers) + len(req.Intents) + len(req.DoneJobs); n != p.chunk || n != p.conn[c].ops[i] {
				t.Fatalf("conn %d request %d has %d ops, want %d", c, i, n, p.chunk)
			}
			if len(req.Intents) != p.conn[c].intents[i] {
				t.Fatalf("conn %d request %d: %d intents, pool says %d", c, i, len(req.Intents), p.conn[c].intents[i])
			}
			for _, r := range req.Reducers {
				st := touch(r.Job)
				if st.sawIntent || r.Reduce != st.reducers {
					t.Fatalf("job %d: reducer %d out of order", r.Job, r.Reduce)
				}
				st.reducers++
			}
			for _, in := range req.Intents {
				st := touch(in.Job)
				if in.Map != st.maps || len(in.PredictedWireBytes) != st.reducers {
					t.Fatalf("job %d: map %d out of order or sized %d for %d reducers", in.Job, in.Map, len(in.PredictedWireBytes), st.reducers)
				}
				st.sawIntent = true
				st.maps++
			}
			if len(live) > peak {
				peak = len(live)
			}
			for _, j := range req.DoneJobs {
				touch(j)
				delete(live, j)
				retired[j] = true
			}
			// The drain after any prefix must name exactly the live jobs.
			if i%97 == 0 || i == len(p.conn[c].bodies)-1 {
				drain := p.liveAfter(c, i+1)
				if len(drain) != len(live) {
					t.Fatalf("conn %d after %d requests: drain lists %d jobs, %d are live", c, i+1, len(drain), len(live))
				}
				for _, j := range drain {
					if live[j] == nil {
						t.Fatalf("conn %d after %d requests: drain lists job %d, which is not live", c, i+1, j)
					}
				}
			}
		}
		if peak > liveJobs/conns {
			t.Fatalf("conn %d: %d jobs live at once, window is %d", c, peak, liveJobs/conns)
		}
		if len(retired) == 0 {
			t.Fatalf("conn %d retired no job: the stream is not stationary", c)
		}
		totalLive += peak
	}
	if totalLive > liveJobs {
		t.Fatalf("%d jobs live at once, W is %d", totalLive, liveJobs)
	}
}

func TestInterleavedAlternatesConnections(t *testing.T) {
	p := testPool(t, 1)
	got := p.interleaved(5)
	want := [][]byte{p.conn[0].bodies[0], p.conn[1].bodies[0], p.conn[0].bodies[1], p.conn[1].bodies[1], p.conn[0].bodies[2]}
	if len(got) != len(want) {
		t.Fatalf("got %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("request %d is not the alternating order", i)
		}
	}
}
