package hadoop

import (
	"testing"

	"pythia/internal/ecmp"
	"pythia/internal/netsim"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// stragglerSpec: all maps take 2 s except one pathological 60 s straggler.
func stragglerSpec(maps, reduces int) *JobSpec {
	spec := uniformSpec(maps, reduces, 2, 2e6)
	spec.MapDurations[maps-1] = 60
	return spec
}

func specRig(cfg Config) (*sim.Engine, *Cluster) {
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cl := NewCluster(eng, net, hosts, ecmp.New(g, 1), cfg)
	return eng, cl
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	run := func(speculative bool) (float64, *Cluster) {
		eng, cl := specRig(Config{Speculative: speculative})
		j, _ := cl.Submit(stragglerSpec(12, 2))
		eng.Run()
		if !j.Done {
			t.Fatal("job did not finish")
		}
		return float64(j.Duration()), cl
	}
	slow, _ := run(false)
	fast, cl := run(true)
	if cl.SpeculativeLaunched == 0 {
		t.Fatal("no speculative attempt launched for a 30x straggler")
	}
	if cl.SpeculativeWins == 0 {
		t.Fatal("backup attempt never won against a 30x straggler")
	}
	if fast >= slow {
		t.Fatalf("speculation did not help: %.1fs vs %.1fs", fast, slow)
	}
	// The straggler gates the map phase at 60s without speculation; with
	// it, the backup (≈2s median) finishes decades earlier.
	if fast > slow*0.6 {
		t.Fatalf("speculation too weak: %.1fs vs %.1fs", fast, slow)
	}
}

func TestSpeculationOffByDefault(t *testing.T) {
	eng, cl := specRig(Config{})
	j, _ := cl.Submit(stragglerSpec(12, 2))
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	if cl.SpeculativeLaunched != 0 {
		t.Fatal("speculation ran despite being disabled")
	}
}

func TestSpeculationWinnerSourcesFetches(t *testing.T) {
	eng, cl := specRig(Config{Speculative: true})
	spec := stragglerSpec(12, 2)
	j, _ := cl.Submit(spec)
	var winnerTracker int = -1
	cl.OnMapSpilled(func(job *Job, m *MapTask, _ Spill) {
		if m.ID == spec.NumMaps-1 && m.State == Completed && winnerTracker == -1 {
			winnerTracker = m.Tracker
		}
	})
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	m := j.Maps[spec.NumMaps-1]
	if m.Attempts < 2 {
		t.Fatalf("straggler ran %d attempts, want 2", m.Attempts)
	}
	if m.Tracker != winnerTracker {
		t.Fatalf("fetch source %d != winning tracker %d", m.Tracker, winnerTracker)
	}
}

func TestSpeculationSlotAccounting(t *testing.T) {
	// After the job, all slots must be free again (no slot leaks from
	// kills or duplicate finishes).
	eng, cl := specRig(Config{Speculative: true, MapSlots: 2})
	j, _ := cl.Submit(stragglerSpec(16, 2))
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	for _, tr := range cl.trackers {
		if tr.freeMap != 2 {
			t.Fatalf("tracker %d has %d free map slots, want 2", tr.index, tr.freeMap)
		}
		if tr.freeRed != cl.cfg.ReduceSlots {
			t.Fatalf("tracker %d leaked reduce slots", tr.index)
		}
	}
	if cl.SpeculativeKilled+cl.SpeculativeWins == 0 {
		t.Fatal("speculation accounting empty")
	}
}

func TestNearTieProducesDuplicateSpill(t *testing.T) {
	// Straggler takes barely longer than the backup will: the original
	// finishes within the kill window and spills a duplicate.
	eng, cl := specRig(Config{Speculative: true, SpeculativeLagFactor: 1.1})
	spec := uniformSpec(12, 2, 2, 2e6)
	// Straggler: backup launches at ~2.2s+heartbeat, runs 2s (median);
	// original finishes at 6s — within a 3s heartbeat of the backup's
	// ~5-7s finish, so whoever loses is too close to kill.
	spec.MapDurations[11] = 6
	j, _ := cl.Submit(spec)
	finishes := map[int]int{}
	cl.OnMapSpilled(func(job *Job, m *MapTask, _ Spill) { finishes[m.ID]++ })
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	if cl.SpeculativeLaunched == 0 {
		t.Skip("no speculation triggered in this timing configuration")
	}
	// Either a duplicate spill happened (near-tie) or the loser was
	// killed; both are legal — but slot accounting must hold regardless.
	for _, tr := range cl.trackers {
		if tr.freeMap != cl.cfg.MapSlots {
			t.Fatalf("slot leak on tracker %d", tr.index)
		}
	}
	total := 0
	for _, n := range finishes {
		total += n
	}
	if total < spec.NumMaps {
		t.Fatalf("spills %d < maps %d", total, spec.NumMaps)
	}
}

// TestSpillAttributionPerAttempt pins the OnMapSpilled contract: every spill
// carries the 1-based attempt that produced it and that attempt's own
// tracker — a speculative loser's duplicate spill must not be attributed to
// the winner's host (the bug the prediction plane inherited from routing
// spill events through the map's task.Tracker).
func TestSpillAttributionPerAttempt(t *testing.T) {
	eng, cl := specRig(Config{Speculative: true, SpeculativeLagFactor: 1.1})
	spec := uniformSpec(12, 2, 2, 2e6)
	spec.MapDurations[11] = 6 // near-tie: both attempts spill
	j, _ := cl.Submit(spec)
	type rec struct {
		attempt, tracker int
	}
	spills := map[int][]rec{}
	cl.OnMapSpilled(func(job *Job, m *MapTask, sp Spill) {
		if sp.Attempt < 1 {
			t.Fatalf("map %d spill with attempt %d", m.ID, sp.Attempt)
		}
		if len(sp.Partitions) != spec.NumReduces {
			t.Fatalf("map %d spill has %d partitions", m.ID, len(sp.Partitions))
		}
		spills[m.ID] = append(spills[m.ID], rec{sp.Attempt, sp.Tracker})
	})
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
	for id, rs := range spills {
		if len(rs) == 1 {
			if rs[0].attempt != 1 {
				t.Fatalf("map %d single spill from attempt %d", id, rs[0].attempt)
			}
			continue
		}
		// A duplicate spill: the two attempts are distinct and ran on
		// distinct trackers (speculation never co-locates the backup).
		if len(rs) != 2 {
			t.Fatalf("map %d spilled %d times", id, len(rs))
		}
		if rs[0].attempt == rs[1].attempt {
			t.Fatalf("map %d: duplicate spills share attempt %d", id, rs[0].attempt)
		}
		if rs[0].tracker == rs[1].tracker {
			t.Fatalf("map %d: duplicate spills share tracker %d", id, rs[0].tracker)
		}
	}
	if cl.SpeculativeLaunched > 0 {
		dup := false
		for _, rs := range spills {
			if len(rs) == 2 {
				dup = true
			}
		}
		if !dup && cl.SpeculativeKilled == 0 {
			t.Fatal("speculation ran but produced neither a kill nor a duplicate spill")
		}
	}
}

func TestDuplicateIntentsHandledByPythia(t *testing.T) {
	// End-to-end: speculative duplicates must not corrupt Pythia's
	// bookkeeping (outstanding demand must drain to zero).
	eng := sim.NewEngine()
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	net := netsim.New(eng, g)
	cl := NewCluster(eng, net, hosts, ecmp.New(g, 1), Config{Speculative: true, SpeculativeLagFactor: 1.1})
	j, _ := cl.Submit(stragglerSpec(12, 3))
	eng.Run()
	if !j.Done {
		t.Fatal("job did not finish")
	}
}
