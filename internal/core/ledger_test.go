package core

import (
	"math"
	"testing"

	"pythia/internal/stats"
)

// refLedger is the per-reducer ledger as it was before the sorted slice: a
// map driven by the statements bookGlobal and unbookGlobal used to run.
type refLedger map[[2]int]float64

func (m refLedger) add(k [2]int, bits float64) { m[k] += bits }

func (m refLedger) sub(k [2]int, bits float64) {
	if m[k] -= bits; m[k] <= 1 {
		delete(m, k)
	}
}

// TestLedgerMatchesMap drives the ledger and the map it replaced with the
// same random add/sub stream — sizes straddling the 1-bit dust threshold,
// releases of absent keys, one key hammered add→sub→add — and compares after
// every step: same keys, bit-equal values, strictly ascending order.
func TestLedgerMatchesMap(t *testing.T) {
	steps := 100_000
	if testing.Short() {
		steps = 10_000
	}
	sizes := []float64{0.25, 0.5, 1, 1.5, 3, 1e3, 8e6, 8e6 + 0.5}
	for _, seed := range []uint64{1, 2, 3} {
		rng := stats.NewRNG(seed)
		a := &aggregate{}
		ref := refLedger{}
		hot := [2]int{3, 2}
		var absent, dusted int
		for step := 0; step < steps; step++ {
			k := [2]int{rng.Intn(7), rng.Intn(7)}
			if rng.Float64() < 0.15 {
				k = hot
			}
			bits := sizes[rng.Intn(len(sizes))]
			if _, held := ref[k]; rng.Float64() < 0.5 {
				a.add(k[0], k[1], bits)
				ref.add(k, bits)
			} else {
				if !held {
					absent++
				}
				a.sub(k[0], k[1], bits)
				ref.sub(k, bits)
				if _, still := ref[k]; held && !still {
					dusted++
				}
			}
			if len(a.perReducer) != len(ref) {
				t.Fatalf("seed %d step %d: ledger holds %d keys, map %d", seed, step, len(a.perReducer), len(ref))
			}
			for i, e := range a.perReducer {
				if i > 0 {
					if !a.perReducer[i-1].before(e.job, e.reduce) {
						t.Fatalf("seed %d step %d: ledger not strictly ascending at %d: %+v", seed, step, i, a.perReducer)
					}
				}
				want, ok := ref[[2]int{e.job, e.reduce}]
				if !ok || math.Float64bits(want) != math.Float64bits(e.bits) {
					t.Fatalf("seed %d step %d: key (%d,%d) holds %v, map %v (present=%v)", seed, step, e.job, e.reduce, e.bits, want, ok)
				}
			}
		}
		if absent < steps/100 || dusted < steps/100 {
			t.Fatalf("seed %d: driver too weak: %d releases of absent keys, %d dust deletions", seed, absent, dusted)
		}
	}
}
