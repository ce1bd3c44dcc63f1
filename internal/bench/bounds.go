package bench

import (
	"fmt"
	"strings"

	"pythia/internal/hadoop"
	"pythia/internal/testbed"
	"pythia/internal/workload"
)

// LowerBound is an omniscient-scheduler lower bound on job completion time
// for the two-rack testbed: no flow allocator — not even one with perfect
// future knowledge — can beat it. It is the maximum of two resource bounds:
//
//   - compute: total map work spread over all map slots, plus the cheapest
//     possible reduce tail;
//   - network: the expected inter-rack shuffle volume pushed through the
//     *entire* spare inter-rack capacity (perfect packing, zero waste).
//
// Reducer placement is unknown to the bound, so the inter-rack volume uses
// the expectation under uniform spread (a reducer is remote to a given
// mapper with probability (hosts/2)/hosts = 1/2 on two equal racks).
type LowerBound struct {
	ComputeSec float64
	NetworkSec float64
}

// Sec returns the binding bound.
func (b LowerBound) Sec() float64 {
	if b.ComputeSec > b.NetworkSec {
		return b.ComputeSec
	}
	return b.NetworkSec
}

// ComputeLowerBound evaluates the bound for a spec on the default testbed
// shape at the given oversubscription level.
func ComputeLowerBound(spec *hadoop.JobSpec, lvl Oversub) LowerBound {
	cfg := testbed.Config{}.Defaults()
	hcfg := hadoop.Config{}.Defaults()

	// Compute bound: perfect packing of map work over every slot, then
	// the smallest possible reduce tail (the least-loaded reducer's
	// compute; some reducer must still run after the last byte arrives).
	totalMapSec := 0.0
	for _, d := range spec.MapDurations {
		totalMapSec += d
	}
	slots := float64(2*cfg.HostsPerRack) * float64(hcfg.MapSlots)
	minReduceTail := 0.0
	for i, bytes := range spec.ReducerBytes() {
		tail := spec.ReduceBaseSec + spec.ReduceSecPerMB*bytes/1e6
		if i == 0 || tail < minReduceTail {
			minReduceTail = tail
		}
	}
	compute := totalMapSec/slots + minReduceTail

	// Network bound: expected inter-rack wire volume through the whole
	// spare trunk capacity, both directions usable independently.
	spareTotal := float64(cfg.Trunks) * cfg.LinkBps
	if lvl.Ratio > 0 {
		spareTotal = float64(cfg.HostsPerRack) * cfg.LinkBps / float64(lvl.Ratio)
		if max := float64(cfg.Trunks) * cfg.LinkBps; spareTotal > max {
			spareTotal = max
		}
	}
	interRackBytes := 0.5 * spec.TotalShuffleBytes() * hcfg.WireOverheadFactor
	// Traffic splits across the two directions; with uniform placement
	// half flows each way, so each direction moves interRack/2 through
	// spareTotal of its own. The binding direction carries half.
	network := (interRackBytes / 2 * 8) / spareTotal

	return LowerBound{ComputeSec: compute, NetworkSec: network}
}

// GapRow is one optimality-gap measurement.
type GapRow struct {
	Oversub   string
	BoundSec  float64
	PythiaSec float64
	ECMPSec   float64
	// PythiaGap = PythiaSec/BoundSec - 1 (0 = optimal).
	PythiaGap float64
	ECMPGap   float64
}

// RunOptimalityGap (E11) measures how much of the omniscient bound Pythia
// and ECMP leave on the table across the oversubscription sweep, on the
// sort workload. The interesting shape: ECMP's gap explodes with contention
// while Pythia's stays bounded.
func RunOptimalityGap(scale Scale) []GapRow {
	var rows []GapRow
	for _, lvl := range StandardLevels() {
		spec := workload.Sort(scale.SortBytes, 10, 17)
		bound := ComputeLowerBound(spec, lvl).Sec()
		py := RunTrial(TrialConfig{Spec: spec, Scheduler: Pythia, Oversub: lvl, Seed: 17}).JobSec
		ec := RunTrial(TrialConfig{Spec: spec, Scheduler: ECMP, Oversub: lvl, Seed: 17}).JobSec
		rows = append(rows, GapRow{
			Oversub:   lvl.Label,
			BoundSec:  bound,
			PythiaSec: py,
			ECMPSec:   ec,
			PythiaGap: py/bound - 1,
			ECMPGap:   ec/bound - 1,
		})
	}
	return rows
}

// FormatGapTable renders the E11 sweep.
func FormatGapTable(title string, rows []GapRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %10s %12s %10s %12s %10s\n",
		"oversub", "bound (s)", "Pythia (s)", "gap", "ECMP (s)", "gap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10.1f %12.1f %9.0f%% %12.1f %9.0f%%\n",
			r.Oversub, r.BoundSec, r.PythiaSec, r.PythiaGap*100, r.ECMPSec, r.ECMPGap*100)
	}
	return b.String()
}
