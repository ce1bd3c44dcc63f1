// Package hedera implements a Hedera-like reactive flow scheduler
// (Al-Fares et al., NSDI 2010), the intermediate point between load-unaware
// ECMP and predictive Pythia that the paper discusses in §II: it detects
// elephant flows from periodically polled switch statistics and re-places
// them on lightly loaded paths with a global-first-fit heuristic.
//
// Its structural handicaps versus Pythia, which the paper calls out, are
// reproduced: it is reactive (a flow must run — on its ECMP-chosen path —
// long enough to be classified before it can be moved), it knows only
// observed rates rather than application-declared transfer sizes, and it is
// blind to flow criticality (which transfer gates the shuffle barrier).
package hedera

import (
	"sort"

	"pythia/internal/ecmp"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// Config tunes the scheduler.
type Config struct {
	// PollInterval is the statistics collection period (Hedera's control
	// loop ran at 5 s in the original paper).
	PollInterval sim.Duration
	// ElephantFraction classifies a flow as an elephant when its current
	// rate exceeds this fraction of its bottleneck link capacity
	// (Hedera used 10% of NIC rate).
	ElephantFraction float64
	// K is the number of candidate paths per pair maybeMove considers
	// (the first K equal-cost paths); first placement is the ECMP walk
	// over every equal-cost path.
	K int
	// MoveMarginBps: only move an elephant if the best alternative path
	// offers at least this much more spare bandwidth (hysteresis).
	MoveMarginBps float64
	// InstallLatency per rule when applying a move.
	InstallLatency sim.Duration
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.PollInterval == 0 {
		c.PollInterval = 5 * sim.Second
	}
	if c.ElephantFraction == 0 {
		c.ElephantFraction = 0.10
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.MoveMarginBps == 0 {
		c.MoveMarginBps = 50e6 // 50 Mbps
	}
	if c.InstallLatency == 0 {
		c.InstallLatency = openflow.DefaultInstallLatency
	}
	return c
}

// Scheduler is the reactive controller. New flows enter on ECMP (use the
// embedded allocator as the cluster's PathResolver); the control loop then
// periodically sweeps for elephants and reroutes them.
type Scheduler struct {
	*ecmp.Allocator // initial placement: plain ECMP

	eng   *sim.Engine
	net   *netsim.Network
	g     *topology.Graph
	paths *topology.PathCache // maybeMove's candidates
	cfg   Config

	// planned holds flows with a pending (latency-delayed) move so the
	// sweep does not schedule the same move twice.
	planned map[netsim.FlowID]bool

	// Metrics.
	Sweeps    int
	Elephants int
	Moves     int
}

// New builds the scheduler and arms its control loop.
func New(eng *sim.Engine, net *netsim.Network, seed uint64, cfg Config) *Scheduler {
	cfg = cfg.Defaults()
	s := &Scheduler{
		Allocator: ecmp.New(net.Graph(), seed),
		eng:       eng,
		net:       net,
		g:         net.Graph(),
		paths:     topology.NewPathCache(net.Graph(), cfg.K),
		cfg:       cfg,
		planned:   make(map[netsim.FlowID]bool),
	}
	eng.AfterDaemon(cfg.PollInterval, s.sweep)
	// Fault plane: re-hash stranded shuffle flows immediately on topology
	// events rather than waiting for the next sweep — Hedera still pays
	// its reactive poll before *optimizing* placement, but basic
	// connectivity recovery is the fabric's ECMP behavior, not the
	// scheduler's.
	s.AttachNetwork(net)
	return s
}

// sweep is one control-loop iteration: classify, then greedily re-place.
func (s *Scheduler) sweep() {
	s.Sweeps++
	defer s.eng.AfterDaemon(s.cfg.PollInterval, s.sweep)

	elephants := s.collectElephants()
	if len(elephants) == 0 {
		return
	}
	// Global first fit over elephants in descending rate order.
	sort.Slice(elephants, func(i, j int) bool {
		if elephants[i].Rate() != elephants[j].Rate() {
			return elephants[i].Rate() > elephants[j].Rate()
		}
		return elephants[i].ID < elephants[j].ID
	})
	for _, f := range elephants {
		s.maybeMove(f)
	}
}

// collectElephants scans active shuffle flows whose rate exceeds the
// threshold fraction of their bottleneck capacity, or which are being
// starved on a congested path while capacity exists elsewhere (rate far
// below fair NIC share).
func (s *Scheduler) collectElephants() []*netsim.Flow {
	seen := map[netsim.FlowID]*netsim.Flow{}
	for _, l := range s.g.Links() {
		s.net.ForEachOn(l.ID, func(f *netsim.Flow) {
			if s.planned[f.ID] {
				return
			}
			seen[f.ID] = f
		})
	}
	var out []*netsim.Flow
	for _, f := range seen {
		bottleneck := s.bottleneckCap(f.Path)
		if bottleneck <= 0 {
			continue
		}
		big := f.Rate() >= s.cfg.ElephantFraction*bottleneck
		// A flow with large outstanding demand crawling below the
		// elephant rate is exactly the case Hedera exists for: its
		// natural demand (what it would consume unimpeded) exceeds the
		// threshold even though its observed rate does not.
		starvedElephant := f.Remaining() >= s.cfg.ElephantFraction*bottleneck &&
			f.Rate() < s.cfg.ElephantFraction*bottleneck
		if big || starvedElephant {
			out = append(out, f)
		}
	}
	s.Elephants += len(out)
	return out
}

func (s *Scheduler) bottleneckCap(p topology.Path) float64 {
	capBps := 0.0
	for i, l := range p.Links {
		c := s.g.Link(l).CapacityBps
		if i == 0 || c < capBps {
			capBps = c
		}
	}
	return capBps
}

// maybeMove re-places one elephant if a strictly better path exists.
func (s *Scheduler) maybeMove(f *netsim.Flow) {
	paths := s.paths.Paths(f.Tuple.SrcHost, f.Tuple.DstHost)
	if len(paths) < 2 {
		return
	}
	curSpare := s.pathSpare(f.Path, f)
	best := f.Path
	bestSpare := curSpare
	for _, cand := range paths {
		if cand.Equal(f.Path) {
			continue
		}
		if sp := s.pathSpare(cand, f); sp > bestSpare {
			best, bestSpare = cand, sp
		}
	}
	if best.Equal(f.Path) || bestSpare-curSpare < s.cfg.MoveMarginBps {
		return
	}
	// Apply after rule-install latency (one rule per switch hop).
	switches := 0
	for _, l := range best.Links {
		if s.g.Node(s.g.Link(l).From).Kind == topology.Switch {
			switches++
		}
	}
	delay := sim.Duration(float64(s.cfg.InstallLatency) * float64(switches))
	s.planned[f.ID] = true
	s.Moves++
	s.eng.After(delay, func() {
		delete(s.planned, f.ID)
		if f.Done() {
			return
		}
		if err := best.Valid(s.g); err != nil {
			return // topology changed under us
		}
		s.net.Reroute(f, best)
	})
}

// pathSpare estimates a path's spare capacity for this flow: min over links
// of (available + the flow's own current usage if it is already there).
func (s *Scheduler) pathSpare(p topology.Path, f *netsim.Flow) float64 {
	spare := 0.0
	for i, l := range p.Links {
		avail := s.net.AvailableBps(l)
		// If f already crosses l, its own allocation would be freed.
		for _, fl := range f.Path.Links {
			if fl == l {
				avail += f.Rate()
				break
			}
		}
		if i == 0 || avail < spare {
			spare = avail
		}
	}
	return spare
}
