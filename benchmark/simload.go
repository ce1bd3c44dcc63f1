package main

import (
	"reflect"
	"time"

	"pythia/internal/bench"
	"pythia/internal/workload"
)

const simFatTreeK = 8 // 128 hosts, 8192 shuffle flows per trial

// runSim is the sim_k8 workload: whole simulated trials of a sort job on a
// k=8 fat-tree under Pythia, timed in host seconds.
func runSim(o options) (*report, error) {
	rep := newReport("sim_k8", o)
	seed := o.seed
	if seed == 0 {
		seed = 7 // RunScaleFatTree's own default; the ECMP trials below must build the same job
	}
	cfg := bench.ScaleFatTreeConfig{K: simFatTreeK, Seed: seed}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	trial := func(name string, run func()) float64 {
		sp := tr.begin(name, -1, rep.attempted, 0)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		tr.end(sp)
		return d.Seconds()
	}

	// Set-up is the first trial of the process: it pays whatever the
	// simulator initializes once (and would expose a cache that makes later
	// trials cheaper at its expense).
	var warm bench.ScaleFatTreeResult
	rep.setupSec = []float64{trial("sim.trial.cold", func() { warm = bench.RunScaleFatTree(cfg) })}

	var walls []float64
	rep.canaryBefore = canaryMS()
	for deadline := time.Now().Add(o.window); time.Now().Before(deadline); {
		var res bench.ScaleFatTreeResult
		walls = append(walls, trial("sim.trial", func() { res = bench.RunScaleFatTree(cfg) }))
		rep.attempted++
		switch {
		case !reflect.ValueOf(res.Faults).IsZero():
			rep.failed++
			rep.fail("trial %d: fault counters not zero: %+v", rep.attempted, res.Faults)
		case res.JobSec != warm.JobSec || len(res.FlowHistory) != len(warm.FlowHistory):
			rep.failed++
			rep.fail("trial %d: simulated job time %v (%d flows) differs from the first trial's %v (%d flows)",
				rep.attempted, res.JobSec, len(res.FlowHistory), warm.JobSec, len(warm.FlowHistory))
		}
	}
	rep.canaryAfter = canaryMS()
	flows := float64(len(warm.FlowHistory))
	wall := median(walls)

	if !o.trace {
		ms := make([]float64, len(walls))
		for i, w := range walls {
			ms[i] = w * 1e3
		}
		rep.fewOpsEndToEnd(flows, ms)
		return rep, nil
	}

	// The same job under ECMP: kernel, allocator and job model with no
	// prediction plane, so the difference is the plane's host cost.
	hosts := bench.FatTreeHosts(simFatTreeK)
	var ecmpWalls []float64
	var ecmp bench.TrialResult
	for i := 0; i < 2; i++ {
		ecmpWalls = append(ecmpWalls, trial("sim.trial.ecmp", func() {
			ecmp = bench.RunTrial(bench.TrialConfig{
				Spec:      workload.Sort(float64(hosts)*128*workload.MB, hosts, seed),
				Scheduler: bench.ECMP,
				FatTreeK:  simFatTreeK,
				Seed:      seed,
			})
		}))
	}
	if ecmp.JobSec <= 0 {
		rep.fail("ECMP trial reported job time %v", ecmp.JobSec)
	}
	ecmpWall := median(ecmpWalls)
	rep.set("netsim.flows", flows)
	rep.setN("netsim.ecmp_trial_wall_s", ecmpWall, len(ecmpWalls))
	rep.set("netsim.flows_per_s", ratio(flows, ecmpWall))
	rep.setN("predict.plane_wall_s", wall-ecmpWall, len(walls))
	rep.set("sim.job_s", warm.JobSec)
	rep.set("sim.ecmp_job_s", ecmp.JobSec)
	rep.set("sim.speedup_vs_ecmp", ratio(ecmp.JobSec, warm.JobSec))
	if q := warm.Quality; q != nil {
		rep.set("openflow.rules_installed", float64(q.Installs))
		rep.setN("flight.late_fraction", q.LateFraction, q.CoveredFlows)
		rep.setN("flight.lead_p50_s", q.LeadP50Sec, q.LeadSamples)
		rep.setN("flight.byte_err_pct", 100*q.ByteErrMeanAbsFrac, q.ByteSamples)
	} else {
		rep.fail("trial carried no prediction-quality report")
	}
	probeKernel(rep, tr)
	probeTopology(rep, tr, simFatTreeK, 4)
	rep.spans = tr.spans
	return rep, nil
}
