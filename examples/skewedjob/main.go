// Skewedjob reproduces the paper's Fig. 1a motivation: a toy sort whose
// reducer-0 fetches 5x the data of reducer-1 (MapReduce job skew), rendered
// as a sequence diagram so the long shuffle phase and the imbalance are
// visible. It then shows what the skew costs under constrained trunks and
// how Pythia's bandwidth-proportional placement helps.
package main

import (
	"fmt"

	"pythia"
)

func main() {
	// Fig. 1a: non-blocking network, ECMP — observe the phases.
	cl := pythia.New(
		pythia.WithScheduler(pythia.SchedulerECMP),
		pythia.WithSeed(1),
	)
	res := cl.RunJob(pythia.ToySortJob())
	fmt.Println(cl.SequenceDiagram(96))
	fmt.Printf("non-blocking network: %.1fs total; shuffle runs %.1fs → %.1fs of it\n\n",
		res.DurationSec, res.MapPhaseSec, res.ShuffleSec)

	// The same skewed pattern at scale, under oversubscription: the
	// skewed reducer's flows gate the barrier, so path choice matters.
	skewed := pythia.CustomJob(pythia.WorkloadConfig{
		Name:         "skewed-sort",
		InputBytes:   8 * pythia.GB,
		NumReduces:   8,
		SkewExponent: 1.0, // heavy: top reducer gets ~3x the median
		Seed:         7,
	})
	for _, oversub := range []int{5, 10, 20} {
		e, p, s := pythia.Compare(skewed, pythia.SchedulerECMP, pythia.SchedulerPythia,
			pythia.WithOversubscription(oversub), pythia.WithSeed(7))
		fmt.Printf("oversub 1:%-3d  ECMP %6.1fs  Pythia %6.1fs  speedup %5.1f%%\n",
			oversub, e, p, s*100)
	}
}
